//! The 23 benchmark kernels used by the WL-Cache evaluation.
//!
//! The paper runs 15 MediaBench \[31\] and 8 MiBench \[17\] applications
//! compiled for ARM. Shipping and cross-compiling those C programs is
//! outside this reproduction's scope, so each application is replaced by
//! a native kernel implementing the same algorithm family with the same
//! memory-access character (DESIGN.md §4, substitution 3):
//!
//! | Label | Kernel |
//! |---|---|
//! | `adpcmdecode` / `adpcmencode` | real IMA ADPCM codec |
//! | `epic` | 2-D Haar wavelet pyramid + quantisation |
//! | `g721decode` / `g721encode` | G.721-style adaptive quantiser codec |
//! | `gsmdecode` / `gsmencode` | LPC analysis/synthesis with LTP search |
//! | `jpegdecode` / `jpegencode` | 8×8 integer DCT/IDCT + quant + zigzag |
//! | `mpeg2decode` / `mpeg2encode` | motion estimation / compensation |
//! | `pegwitdecrypt` | wide-word modular arithmetic + stream cipher |
//! | `sha` | real SHA-1 |
//! | `susancorners` / `susanedges` | SUSAN mask-based corner/edge detection |
//! | `basicmath` | cube roots, integer sqrt, angle conversion |
//! | `qsort` | in-memory iterative quicksort |
//! | `dijkstra` | dense-graph shortest paths |
//! | `FFT` / `FFT_i` | fixed-point radix-2 (I)FFT |
//! | `patricia` | Patricia trie insert/lookup |
//! | `rijndael_d` / `rijndael_e` | real AES-128 CBC |
//!
//! Every kernel is deterministic, performs its computation through the
//! [`ehsim_mem::Bus`] trait (so all data flows through the simulated
//! hierarchy) and returns a checksum; the integration suite compares
//! checksums from crash-ridden simulations against functional runs.
//!
//! # Examples
//!
//! ```
//! use ehsim_mem::{FunctionalMem, Workload};
//! use ehsim_workloads::prelude::*;
//!
//! let w = Sha::small();
//! let mut mem = FunctionalMem::new(w.mem_bytes());
//! let a = w.run(&mut mem);
//! let mut mem2 = FunctionalMem::new(w.mem_bytes());
//! let b = w.run(&mut mem2);
//! assert_eq!(a, b, "kernels are deterministic");
//! ```

mod media;
mod mi;
pub(crate) mod util;

pub use media::{
    AdpcmDecode, AdpcmEncode, Epic, G721Decode, G721Encode, GsmDecode, GsmEncode, JpegDecode,
    JpegEncode, Mpeg2Decode, Mpeg2Encode, PegwitDecrypt, Sha, SusanCorners, SusanEdges,
};
pub use mi::{
    BasicMath, Dijkstra, Fft, FftInverse, Patricia, Qsort, RijndaelDecrypt, RijndaelEncrypt,
};

use ehsim_mem::Workload;

/// Workload size preset.
///
/// `Small` keeps unit/integration tests fast; `Default` is sized so a
/// full run draws enough energy to see the paper's outage cadence
/// (dozens of power failures on the RF traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Scale {
    /// Test-sized (tens of thousands of instructions).
    Small,
    /// Experiment-sized (hundreds of thousands to millions).
    #[default]
    Default,
}

/// The 15 MediaBench-style kernels, in the paper's figure order.
pub fn mediabench(scale: Scale) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(AdpcmDecode::with_scale(scale)),
        Box::new(AdpcmEncode::with_scale(scale)),
        Box::new(Epic::with_scale(scale)),
        Box::new(G721Decode::with_scale(scale)),
        Box::new(G721Encode::with_scale(scale)),
        Box::new(GsmDecode::with_scale(scale)),
        Box::new(GsmEncode::with_scale(scale)),
        Box::new(JpegDecode::with_scale(scale)),
        Box::new(JpegEncode::with_scale(scale)),
        Box::new(Mpeg2Decode::with_scale(scale)),
        Box::new(Mpeg2Encode::with_scale(scale)),
        Box::new(PegwitDecrypt::with_scale(scale)),
        Box::new(Sha::with_scale(scale)),
        Box::new(SusanCorners::with_scale(scale)),
        Box::new(SusanEdges::with_scale(scale)),
    ]
}

/// The 8 MiBench-style kernels, in the paper's figure order.
pub fn mibench(scale: Scale) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(BasicMath::with_scale(scale)),
        Box::new(Qsort::with_scale(scale)),
        Box::new(Dijkstra::with_scale(scale)),
        Box::new(Fft::with_scale(scale)),
        Box::new(FftInverse::with_scale(scale)),
        Box::new(Patricia::with_scale(scale)),
        Box::new(RijndaelDecrypt::with_scale(scale)),
        Box::new(RijndaelEncrypt::with_scale(scale)),
    ]
}

/// All 23 kernels in the paper's figure order (MediaBench then MiBench).
pub fn all23(scale: Scale) -> Vec<Box<dyn Workload>> {
    let mut v = mediabench(scale);
    v.extend(mibench(scale));
    v
}

/// Convenient re-exports.
pub mod prelude {
    pub use crate::{
        all23, mediabench, mibench, AdpcmDecode, AdpcmEncode, BasicMath, Dijkstra, Epic, Fft,
        FftInverse, G721Decode, G721Encode, GsmDecode, GsmEncode, JpegDecode, JpegEncode,
        Mpeg2Decode, Mpeg2Encode, Patricia, PegwitDecrypt, Qsort, RijndaelDecrypt, RijndaelEncrypt,
        Scale, Sha, SusanCorners, SusanEdges,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes_match_paper() {
        assert_eq!(mediabench(Scale::Small).len(), 15);
        assert_eq!(mibench(Scale::Small).len(), 8);
        assert_eq!(all23(Scale::Small).len(), 23);
    }

    #[test]
    fn labels_match_figures_and_are_unique() {
        let names: Vec<String> = all23(Scale::Small)
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        let expected = [
            "adpcmdecode",
            "adpcmencode",
            "epic",
            "g721decode",
            "g721encode",
            "gsmdecode",
            "gsmencode",
            "jpegdecode",
            "jpegencode",
            "mpeg2decode",
            "mpeg2encode",
            "pegwitdecrypt",
            "sha",
            "susancorners",
            "susanedges",
            "basicmath",
            "qsort",
            "dijkstra",
            "FFT",
            "FFT_i",
            "patricia",
            "rijndael_d",
            "rijndael_e",
        ];
        assert_eq!(names, expected);
    }
}

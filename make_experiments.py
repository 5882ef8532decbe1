#!/usr/bin/env python3
"""Generates EXPERIMENTS.md from results/*.tsv (run after all_figures)."""
import os

R = "results"

def read(name):
    with open(os.path.join(R, name + ".tsv")) as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]

def md_table(rows):
    out = ["| " + " | ".join(rows[0]) + " |",
           "|" + "---|" * len(rows[0])]
    for r in rows[1:]:
        out.append("| " + " | ".join(r) + " |")
    return "\n".join(out)

def gmean_cols(name):
    """Return {design: gmean(Total)} from a speedup figure TSV."""
    rows = read(name)
    ix = rows[0].index("gmean(Total)")
    return {r[0]: float(r[ix]) for r in rows[1:]}

f4, f5, f6 = gmean_cols("fig04"), gmean_cols("fig05"), gmean_cols("fig06")
f7 = read("fig07")
f8a, f8b = read("fig08a"), read("fig08b")
f10a, f10b = read("fig10a"), read("fig10b")
f11, f12 = gmean_cols("fig11"), gmean_cols("fig12")
f13a, f13b = read("fig13a"), read("fig13b")
s66 = read("stats66")
hw = read("hwcost")

def spd(d, f):
    return f"{f[d]:.2f}"

fig7_total = [r for r in f7 if r[0] == "gmean(Total)"][-1][1]

ab = {r[0]: r[1:] for r in read("ablation_wbuf")}
wb_area = float(ab["area (mm^2)"][1]) / float(ab["area (mm^2)"][0])
wb_dyn = float(ab["dynamic (pJ/access)"][1]) / float(ab["dynamic (pJ/access)"][0])

doc = f"""# EXPERIMENTS — paper vs. measured

Every table/figure of the paper, the command that regenerates it, and a
comparison of the paper's reported numbers against this reproduction.
All measured numbers come from `cargo run --release -p ehsim-bench
--bin all_figures` (TSVs under `results/`); they are deterministic
(fixed seeds).

**Reading guide.** Absolute numbers cannot match the paper — the
substrate is a from-scratch simulator with documented calibration
(DESIGN.md §2.4) and the kernels are smaller than the original
applications — so the comparison targets are the paper's *shapes*: who
wins, by roughly what factor, and where the crossovers fall.

## Headline (abstract / Figs 4–6)

| Quantity | Paper | Measured |
|---|---|---|
| WL-Cache vs NVSRAM(ideal), no failures | ~0.97× (slightly slower) | {spd("WL-Cache", f4)}× |
| WL-Cache vs NVSRAM(ideal), Trace 1 | 1.09× | {spd("WL-Cache", f5)}× |
| WL-Cache vs NVSRAM(ideal), Trace 2 | 1.12× | {spd("WL-Cache", f6)}× |
| NVCache-WB vs NVSRAM, no failures | ~0.32× | {spd("NVCache-WB", f4)}× |
| VCache-WT vs NVSRAM, no failures | ~0.50× | {spd("VCache-WT", f4)}× |
| ReplayCache vs NVSRAM, no failures | ~0.80× | {spd("ReplayCache", f4)}× |
| NVCache-WB vs NVSRAM, Trace 1 | ~0.33× | {spd("NVCache-WB", f5)}× |
| VCache-WT vs NVSRAM, Trace 1 | ~0.64× | {spd("VCache-WT", f5)}× |
| ReplayCache vs NVSRAM, Trace 1 | ~0.83× | {spd("ReplayCache", f5)}× |

The design ordering under power failures (WL > NVSRAM > VCache-WT >
NVCache, Figs 5/6) is reproduced; our ReplayCache approximation is the
one deviation — it lands at ≈ NVSRAM under outages instead of the
paper's 0.83× because the region-persistence costs that the real
compiler inserts are under-modelled (DESIGN.md §4, substitution 3). The
WL > ReplayCache ordering is preserved.

Regenerate: `--bin fig04`, `--bin fig05`, `--bin fig06`.

## Fig 7 — NVM write traffic (WL / NVSRAM, Trace 1)

Paper: ≤ 1.08× per application. Measured (gmean): **{fig7_total}×**.
Our kernels re-dirty hot lines (codec state, tables) more aggressively
than the paper's applications, so waterline cleaning writes more often;
the paper's qualitative point — WL pays a modest write-traffic premium
that asynchronous cleaning hides — still holds (Fig 5 shows the premium
does not cost performance). Regenerate: `--bin fig07`.

## Fig 8(a) — DirtyQueue replacement policy

{md_table(f8a)}

Paper: DQ-FIFO ≈ slightly above DQ-LRU under failures. Measured: the
two are within ~1% of each other; the LRU search-energy penalty that
tips the paper's balance is too small to matter under our
dropout-driven outages. Regenerate: `--bin fig08a`.

## Fig 8(b) — set associativity

{md_table(f8b)}

Paper: direct-mapped slowest, 2-way ≈ 4-way with 2-way slightly ahead.
Regenerate: `--bin fig08b`.

## Fig 9 — maxline sensitivity (per-application)

Full table in `results/fig09.tsv` (23 apps × maxline 2/4/6/8 × FIFO/LRU
cache replacement vs NVSRAM). Paper's findings to check: best
performance at maxline 4–6, degradation at 2 (too write-through-like)
and at 8 (larger reserve/Von), FIFO ≥ LRU for cache replacement.
Regenerate: `--bin fig09`.

## Fig 10(a) — cache size sweep (Trace 1, gmean vs 1 kB NVSRAM)

{md_table(f10a)}

Paper: speedups grow with cache size; the WL↔NVSRAM gap narrows as the
cache shrinks. Regenerate: `--bin fig10a`.

## Fig 10(b) — capacitor size sweep (Trace 1, mean execution seconds)

{md_table(f10b)}

Paper: all schemes are best near 1 µF and get exponentially slower with
larger capacitors (charging time dominates); the initial charge of the
oversized buffer is the driver. Regenerate: `--bin fig10b`.

## Figs 11/12 — adaptive vs best-static thresholds

Trace 1 (gmean(Total) vs NVSRAM): """ + ", ".join(f"{k} = {v:.2f}" for k, v in f11.items()) + """.
Trace 2: """ + ", ".join(f"{k} = {v:.2f}" for k, v in f12.items()) + f"""

Paper (Trace 1): FIFO(Adap) 1.35 / FIFO(Best) 1.26 / LRU(Adap) 1.18 /
LRU(Best) 1.10; (Trace 2): 1.44 / 1.30 / 1.24 / 1.15. Measured values
are closer to 1.0–1.2 and Adap ≈ Best: with ~5 outages per run (vs the
paper's ~33–45) the boot-time controller has few chances to adapt, so
the static default is near-optimal. The FIFO ≥ LRU ordering holds.
Regenerate: `--bin fig11`, `--bin fig12`.

## Fig 13(a) — power-trace sensitivity

{md_table(f13a)}

Paper: WL wins clearly on all RF traces; on solar/thermal NVSRAM closes
to within 8%/2% and WL-Cache(dyn) adds ~5%/3% over WL. Regenerate:
`--bin fig13a`.

## Fig 13(b) — energy breakdown (Trace 1, % of NVSRAM total)

{md_table(f13b)}

Paper: WL total ≈ 83% of NVSRAM with the cache component reduced most;
NVCache dominated by cache energy; WT dominated by memory writes.
Regenerate: `--bin fig13b`.

## §6.6 statistics (WL-Cache, adaptive, DQ-FIFO)

{md_table(s66)}

Paper: ~11/12 reconfigurations, maxline range 2–6, >98% prediction
accuracy, ~6 dirty lines and 2–3 write-backs per on-period, <1% stall
time. Our on-periods are ~100× longer (fewer, longer intervals at our
workload scale), so per-interval write-back counts are proportionally
larger and the direction-prediction accuracy is lower on the choppier
trace 2; reconfiguration counts scale with outage counts. The maxline
range and stall bound match. Regenerate: `--bin stats66`.

## §6.2 hardware cost (CACTI-lite)

{md_table(hw)}

Paper: DirtyQueue ≤ 0.005 mm², ≤ 0.0008 nJ/access, ~0.1 mW leakage ≈ 9%
of NV-cache leakage. Regenerate: `--bin hwcost`.

## Tables 1–3

- Table 1 (qualitative design comparison): regenerated structurally from
  the implemented models — `--bin table1` (`results/table1.tsv`).
- Table 2 (simulation configuration): `--bin table2`
  (`results/table2.tsv`); matches the paper's Table 2 with the
  documented cache-size scaling.
- Table 3 (related-work comparison) is verbatim prose; see the paper.

## Extensions beyond the paper

- **§3.3 write-buffer ablation** (`--bin ablation_wbuf`,
  `results/ablation_wbuf.tsv`): we implemented the write-through +
  CAM-write-buffer alternative the paper rejects. The hardware-cost
  objections reproduce decisively — {wb_area:.0f}× the DirtyQueue's area
  and {wb_dyn:.1f}× its per-access dynamic energy — but under our
  banked-NVM timing model the *performance* objection does not: the
  buffer design avoids the synchronous dirty-eviction write-backs that
  write-back caches pay, and lands slightly above WL-Cache on speedup.
  This is a substrate-dependent conclusion worth noting: with a
  single-bank NVM (where `tWR` recovery serialises evictions behind
  fills) the balance tips back toward WL-Cache.
- **CLI** (`ehsim-cli`): run/compare any workload × design × trace from
  the command line.
"""
open("EXPERIMENTS.md", "w").write(doc)
print("EXPERIMENTS.md written,", len(doc), "bytes")

// Socket mentions that must NOT trip L009: doc comments, string
// literals, superstring idents, and #[cfg(test)] regions.

/// Never bind a `TcpListener` here; sweeps run in-process.
pub fn doc_only() -> &'static str {
    "std::net::TcpStream is banned in every crate"
}

pub struct TcpStreamStats;

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_bind_ephemeral_loopback_ports() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0");
        drop(listener);
    }
}

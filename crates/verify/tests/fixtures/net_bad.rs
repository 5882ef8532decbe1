// Sockets in a crate (triggers L009 four times: the `use`
// line, a `use`d handle, and two `std::net::`-qualified forms).
use std::net::TcpListener;

pub fn serve() -> std::io::Result<()> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let (stream, _peer): (std::net::TcpStream, _) = listener.accept()?;
    drop(stream);
    let sock = std::net::UdpSocket::bind("127.0.0.1:0")?;
    drop(sock);
    Ok(())
}

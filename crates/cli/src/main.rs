//! Thin shell around [`ehsim_cli`]: parse, execute, print. Usage is
//! printed only after a parse error; a run-time error is one line.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = ehsim_cli::parse(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\n");
        eprint!("{}", ehsim_cli::usage());
        std::process::exit(2);
    });
    match ehsim_cli::execute(&cmd) {
        Ok(text) => print!("{text}"),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

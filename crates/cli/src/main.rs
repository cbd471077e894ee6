//! `dagree` — command-line explorer for m/u-degradable agreement.

use degradable_cli::Error;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match degradable_cli::run(&argv) {
        Ok(text) => println!("{text}"),
        Err(err) => {
            match &err {
                Error::Usage(msg) => eprintln!("{msg}"),
                Error::Failed(text) => println!("{text}"),
            }
            std::process::exit(err.exit_code());
        }
    }
}

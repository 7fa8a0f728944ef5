//! `datanet` — the command-line front end to the DataNet reproduction.
//!
//! ```text
//! datanet gen movies --records 100000 --out ds.json
//! datanet scan --dataset ds.json --meta meta/ --alpha 0.3
//! datanet query --dataset ds.json --meta meta/ --subdataset 0
//! datanet plan --dataset ds.json --meta meta/ --subdataset 0
//! datanet simulate --dataset ds.json --subdataset 0 --job topk
//! datanet repro fig5 fig7
//! datanet gate --quick
//! ```

mod args;
mod commands;
mod dataset;
mod fixtures;
mod gate;
mod repro;
mod table;

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::stdout();
    if let Err(e) = commands::dispatch(tokens, &mut stdout) {
        eprint!("{}", commands::error_text(&e));
        std::process::exit(2);
    }
}

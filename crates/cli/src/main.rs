//! `profit-mining` — command-line profit mining.
//!
//! ```text
//! profit-mining gen        --out data.json [--dataset i|ii] [--txns N] [--items N] [--seed N]
//! profit-mining fit        --data data.json --out model.json [--minsup F] [--max-body N]
//!                          [--no-moa] [--conf] [--no-prune] [--min-conf F]
//!                          [--min-profit F]
//! profit-mining recommend  --data data.json --model model.json [--txn N] [--top K]
//! profit-mining rules      --model model.json [--top N]
//! profit-mining eval       --data data.json [--minsup F] [--folds N] [--buying] [--seed N]
//! profit-mining stats      --data data.json
//! ```
//!
//! `profit-mining help` lists every command and flag. Datasets are the JSON produced by `gen` (or by
//! [`pm_txn::TransactionSet::to_json`]); models serialize the trained
//! rule list plus catalog/hierarchy so `recommend` works without
//! retraining.

use pm_cli::{run, CliError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

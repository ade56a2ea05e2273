//! `artsparse-perfbench`: run one workload and print its report, ending
//! with the one-line JSON result.
//!
//! ```text
//! artsparse-perfbench --workload <ingest|read|mixed|grid> --seed <n> --seconds <s> --trace <0|1>
//! artsparse-perfbench --steady <runs> [--workloads a,b] [--seed <n>] [--seconds <s>]
//! ```

use artsparse_perfbench::gen::Workload;
use artsparse_perfbench::{metrics, run_traced, run_untraced, steady, Options};
use std::process::ExitCode;

const USAGE: &str = "\
usage: artsparse-perfbench --workload <ingest|read|mixed|grid> --seed <n> --seconds <s> --trace <0|1>
       artsparse-perfbench --steady <runs> [--workloads a,b,..] [--seed <n>] [--seconds <s>]
options:
  --requests <n>      fixed request count per connection instead of a timed window
  --setups <n>        set-ups per run (setup_s is their median; default 5)
  --scale <s>         grid scale: medium (default), smoke or paper
  --corrupt-oracle    falsify one oracle value (self-test: the run must fail)";

struct Args {
    workloads: Vec<Workload>,
    trace: bool,
    steady: Option<usize>,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        trace: false,
        steady: None,
        opts: Options::new(1, 10.0),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let num = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs an integer"))
        };
        match flag.as_str() {
            "--workload" | "--workloads" => {
                for name in value()?.split(',') {
                    a.workloads
                        .push(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
                }
            }
            "--seed" => a.opts.seed = num(value()?)?,
            "--seconds" => a.opts.seconds = num(value()?)? as f64,
            "--trace" => a.trace = num(value()?)? == 1,
            "--requests" => a.opts.requests = Some(num(value()?)?),
            "--setups" => a.opts.setups = num(value()?)? as usize,
            "--steady" => a.steady = Some(num(value()?)? as usize),
            "--scale" => {
                let v = value()?;
                a.opts.scale =
                    artsparse_patterns::Scale::parse(&v).ok_or(format!("unknown scale {v:?}"))?;
            }
            "--corrupt-oracle" => a.opts.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workloads.is_empty() {
        if a.steady.is_none() {
            return Err("--workload is required".into());
        }
        a.workloads = Workload::ALL.to_vec();
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = a.steady {
        let exe = std::env::current_exe().expect("the running executable has a path");
        return match steady::run(&exe, &a.workloads, runs, a.opts.seed, a.opts.seconds as u64) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let [workload] = a.workloads[..] else {
        eprintln!("error: give exactly one --workload\n{USAGE}");
        return ExitCode::from(2);
    };
    let (report, table) = if a.trace {
        (run_traced(workload, &a.opts), metrics::per_layer())
    } else {
        (run_untraced(workload, &a.opts), metrics::end_to_end_table())
    };
    match report {
        Ok(r) => {
            print!("{}", r.text);
            println!("{}", r.outcome.result_line(&table));
            if r.outcome.wrong > 0 {
                eprintln!("error: {} wrong answer(s)", r.outcome.wrong);
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {} workload failed: {e}", workload.name());
            ExitCode::from(2)
        }
    }
}

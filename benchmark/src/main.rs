//! The pipeline benchmark. See `README.md` beside this package.

mod compare;
mod jsonio;
mod rss;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use run::Run;
use trace::Tracer;

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      benchmark suite [--seed N] [--seconds S] [--repeat R] [--quick] [--out FILE]\n\
         \x20      benchmark compare A.json B.json\n\
         workloads: {}",
        spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn main() {
    // The fleet phase of train_scan spawns this binary as its workers.
    bellwether_coord::maybe_run_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, snapshot] = args.as_slice() {
        if flag == workloads::serve_predict::SERVE_CHILD_FLAG {
            workloads::serve_predict::serve_child(std::path::Path::new(snapshot));
        }
    }
    if let [cmd, a, b] = args.as_slice() {
        if cmd == "compare" {
            match compare::compare(a, b) {
                Ok((report, worse)) => {
                    print!("{report}");
                    std::process::exit(i32::from(worse));
                }
                Err(e) => {
                    eprintln!("compare: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    let suite = args.first().is_some_and(|a| a == "suite");
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut quick) = (spec::DEFAULT_SEED, None, false, false);
    let (mut repeat, mut out) = (1u32, None);
    let mut it = args.iter().skip(usize::from(suite));
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if !suite => workload = spec::workload(value()).map(|w| w.name),
            "--trace" if !suite => {
                trace = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--repeat" if suite => repeat = value().parse().unwrap_or_else(|_| usage()),
            "--out" if suite => out = Some(std::path::PathBuf::from(value())),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--quick" => quick = true,
            _ => usage(),
        }
    }
    let seconds: f64 = seconds.unwrap_or(if quick { 1.0 } else { spec::RUN_SECONDS });
    if suite {
        let args = suite::Args {
            seed,
            seconds,
            quick,
            repeat: repeat.max(1),
            out,
        };
        match suite::run(&args) {
            Ok(correct) => std::process::exit(i32::from(!correct)),
            Err(e) => {
                eprintln!("suite: {e}");
                std::process::exit(2);
            }
        }
    }
    let Some(workload) = workload else { usage() };

    let mut run = Run::new(workload, seed, seconds, trace, quick);
    std::fs::remove_dir_all(&run.dir).ok();
    std::fs::create_dir_all(&run.dir).expect("create the run's scratch directory");
    // Spill files of the external CUBE pass go to the temp dir; keep
    // them inside the checkout.
    std::env::set_var("TMPDIR", &run.dir);

    // A failed `expect` inside a workload must not leave its layouts
    // (over 100 MB) behind: remove them, then let the panic end the run.
    let mut tracer = Tracer::new();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        workloads::run(&mut run, &mut tracer)
    }));
    std::fs::remove_dir_all(&run.dir).ok();
    if let Err(panic) = outcome {
        std::panic::resume_unwind(panic);
    }

    print!("{}", run.human());
    println!("INFO {}", run.info_json());
    println!("{}", run.result_json());
    if !run.correct() {
        std::process::exit(1);
    }
}

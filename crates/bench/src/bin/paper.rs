#![forbid(unsafe_code)]
//! `paper [SECTION…]` — Tables 6–8 and Figures 8–10 from one set of
//! builds (`bench::report`): `table6 table7 table8 fig8 fig9 fig10` (none
//! named = these six), and Table 8's ablations `sweep` and `rankings`,
//! which run only by name. `BENCH_SCALE=small paper table6 fig8` is CI's.

use bench::{parse_sections, report, threads_from_env, Inputs, Scale};

fn main() {
    let named: Vec<String> = std::env::args().skip(1).collect();
    let sections = parse_sections(&named).unwrap_or_else(|why| {
        eprintln!("paper: {why}");
        std::process::exit(2)
    });
    let (scale, threads) = (Scale::from_env(), threads_from_env());
    println!("§8 on GLP stand-ins (scale: {scale:?}, in-memory build threads: {threads})\n");
    if let Err(e) = report(&mut std::io::stdout().lock(), &Inputs::at(scale, threads), &sections) {
        eprintln!("paper: {e}");
        std::process::exit(1);
    }
}

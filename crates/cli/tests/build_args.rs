//! `hopdb-cli build --external` checks its budget before it does any
//! work: `--block-bytes 0` used to run every iteration and then panic
//! (`attempt to divide by zero` in the I/O report) with no index
//! written. The degenerate budgets that *do* work — they clamp — keep
//! working, and a budget or `--switch-at` that the chosen build would
//! not read is refused as early. And what `build` wrote before the
//! image format changed is refused by name by everything that opens an
//! index.

use std::process::Command;

fn cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hopdb-cli")).args(args).output().expect("spawn hopdb-cli")
}

#[test]
fn zero_block_bytes_is_refused_before_the_graph_is_read() {
    let dir = std::env::temp_dir().join(format!("hopdb-buildargs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();

    // The edge list does not exist: a refusal that names the option, and
    // not the file, came before any attempt to read the graph.
    let (missing, index) = (path("no-such-graph.txt"), path("zero.idx"));
    let out = cli(&["build", "-i", &missing, "-o", &index, "--external", "--block-bytes", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--block-bytes"), "{stderr}");
    assert!(!stderr.contains("cannot open") && !stderr.contains("panicked"), "{stderr}");
    assert!(!std::path::Path::new(&index).exists(), "no index may be written");

    let (graph, mem, ext) = (path("g.txt"), path("mem.idx"), path("ext.idx"));
    assert!(cli(&["gen", "--vertices", "40", "--seed", "3", "-o", &graph]).status.success());
    assert!(cli(&["build", "-i", &graph, "-o", &mem]).status.success());
    for budget in [["--memory-records", "0"], ["--memory-records", "1"], ["--block-bytes", "1"]] {
        let out = cli(&["build", "-i", &graph, "-o", &ext, "--external", budget[0], budget[1]]);
        assert!(out.status.success(), "{budget:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(std::fs::read(&ext).unwrap(), std::fs::read(&mem).unwrap(), "{budget:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn options_the_build_does_not_read_are_refused_before_the_graph_is_read() {
    let dir = std::env::temp_dir().join(format!("hopdb-unread-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (missing, index) = (path("no-such-graph.txt"), path("unread.idx"));
    let build = |extra: &[&str]| {
        let out = cli(&[&["build", "-i", &missing, "-o", &index][..], extra].concat());
        (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
    };

    // The external budget without `--external`, and `--switch-at` with a
    // strategy that never switches: each names the option, not the file.
    for (extra, flag) in [
        (&["--memory-records", "64"][..], "--memory-records"),
        (&["--block-bytes", "4096"], "--block-bytes"),
        (&["--strategy", "stepping", "--switch-at", "3"], "--switch-at"),
        (&["--switch-at", "3", "--strategy", "doubling"], "--switch-at"),
    ] {
        let (code, stderr) = build(extra);
        assert_eq!(code, Some(1), "{extra:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown option {flag} for build")), "{stderr}");
        assert!(!stderr.contains("cannot open") && !stderr.contains("panicked"), "{stderr}");
    }
    // What the build does read gets as far as the missing graph.
    for extra in [
        &["--switch-at", "3"][..],
        &["--strategy", "hybrid", "--switch-at", "2"],
        &["--external", "--memory-records", "64", "--block-bytes", "4096"],
    ] {
        let (code, stderr) = build(extra);
        assert_eq!(code, Some(1), "{extra:?}: {stderr}");
        assert!(stderr.contains("cannot open"), "{extra:?}: {stderr}");
    }
    assert!(!std::path::Path::new(&index).exists(), "no index may be written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_image_from_before_the_format_change_is_refused_by_name() {
    let dir = std::env::temp_dir().join(format!("hopdb-oldimage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();

    // A complete HOPIDX01 image of two isolated vertices: magic, flags,
    // n, a u64 entry-count directory, raw (pivot, dist) pairs.
    let mut v01 = b"HOPIDX01".to_vec();
    v01.extend_from_slice(&[0, 0, 0, 0]);
    for word in [2u64, 0, 1, 2] {
        v01.extend_from_slice(&word.to_le_bytes());
    }
    for word in [0u32, 0, 1, 0] {
        v01.extend_from_slice(&word.to_le_bytes());
    }
    // A complete HOPIDX02 image of the same: byte-wide hub distances, a
    // zero reserved byte, a u32 byte-offset directory, no labels, its
    // CRC.
    let mut v02 = b"HOPIDX02".to_vec();
    v02.extend_from_slice(&[0, 1, 0, 0]);
    v02.extend_from_slice(&2u64.to_le_bytes());
    v02.extend_from_slice(&[0u8; 12]);
    v02.extend_from_slice(&extmem::wire::crc32(&v02).to_le_bytes());

    for (old, name) in [(v01, "HOPIDX01"), (v02, "HOPIDX02")] {
        let (index, announce) = (path("old.idx"), path("addr"));
        std::fs::write(&index, &old).expect("write old image");
        let serve = ["serve", "-x", &index, "--addr", "127.0.0.1:0", "--announce-file", &announce];
        for args in [
            &["query", "-x", &index, "0", "1"][..],
            &serve,
            &["shard", "-x", &index, "--shards", "2"],
        ] {
            let out = cli(args);
            let (stdout, stderr) =
                (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            let refusal = format!("{name} image: rebuild it with this version's hopdb-cli build");
            assert!(stderr.contains(&refusal), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert!(stdout.is_empty(), "{args:?} printed: {stdout}");
        }
        assert!(!std::path::Path::new(&announce).exists(), "nothing may be served");
        assert!(!std::path::Path::new(&path("old.idx.shard0")).exists(), "nothing may be cut");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn build_prints_the_size_of_the_image_it_wrote() {
    let dir = std::env::temp_dir().join(format!("hopdb-imagesize-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (graph, index) = (path("g.txt"), path("g.idx"));
    assert!(cli(&["gen", "--vertices", "300", "--seed", "5", "-o", &graph]).status.success());
    let out = cli(&["build", "-i", &graph, "-o", &index]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    let lines: Vec<&str> = stdout.lines().collect();
    let at = lines.iter().position(|l| l.starts_with("image: ")).expect("an image line");
    assert!(lines[at + 1].starts_with("index: "), "{stdout}");
    let bytes = std::fs::metadata(&index).expect("the image").len();
    let per_vertex = lines[at]
        .strip_prefix(&format!("image: {bytes} B ("))
        .and_then(|rest| rest.strip_suffix(" B/vertex)"))
        .unwrap_or_else(|| panic!("{} is not the {bytes}-byte image", lines[at]));
    assert!(per_vertex.parse::<f64>().is_ok_and(|b| b > 1.0), "{}", lines[at]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn build_reports_the_fringe_it_derives() {
    let dir = std::env::temp_dir().join(format!("hopdb-fringe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fixture dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let fringe_line = |out: &std::process::Output| -> String {
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
        let line = stdout.lines().find(|l| l.starts_with("fringe: ")).expect("a fringe line");
        line.to_string()
    };

    // A directed GLP at density 2.5 (the shape of hopbench's dir-ext-read)
    // has leaves and vertices with two neighbours; both engines derive
    // the same ones and label the same core.
    let graph = path("leafy.txt");
    let gen = ["gen", "--vertices", "400", "--density", "2.5", "--seed", "9", "--directed"];
    assert!(cli(&[&gen[..], &["-o", &graph]].concat()).status.success());
    let (mem, ext) = (path("mem.idx"), path("ext.idx"));
    let line = fringe_line(&cli(&["build", "-i", &graph, "-o", &mem, "--directed"]));
    let ext_line =
        fringe_line(&cli(&["build", "-i", &graph, "-o", &ext, "--directed", "--external"]));
    assert_eq!(line, ext_line);
    assert_eq!(std::fs::read(&mem).unwrap(), std::fs::read(&ext).unwrap());
    let stats =
        String::from_utf8_lossy(&cli(&["stats", "-i", &graph, "--directed"]).stdout).into_owned();
    let edges: usize = stats
        .lines()
        .find_map(|l| l.strip_prefix("|E|")?.trim().parse().ok())
        .expect("|E| in stats");
    let numbers: Vec<usize> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|word| !word.is_empty())
        .map(|word| word.parse().expect("a number"))
        .collect();
    let &[derived, 400, leaves, two, 2, core_edges, shortcuts] = numbers.as_slice() else {
        panic!("{line}")
    };
    assert_eq!(
        line,
        format!(
            "fringe: {derived} of 400 vertices ({leaves} leaves, {two} of degree 2), \
             core |E| = {core_edges} incl. {shortcuts} shortcuts"
        )
    );
    assert_eq!(derived, leaves + two, "{line}");
    assert!(leaves > 100 && two > 0 && core_edges < edges, "{line} of {edges} edges");
    // Each leaf took one or two arcs with it, each vertex of degree 2 two
    // to four; the shortcuts are arcs the graph did not have.
    let kept = core_edges - shortcuts;
    assert!((edges - 2 * leaves - 4 * two..=edges - leaves - 2 * two).contains(&kept), "{line}");

    // A 4-cycle has no leaf: 3 goes, then 1, both on 0 and 2, and the
    // core is their one shortcut 0–2.
    let cycle = path("cycle.txt");
    std::fs::write(&cycle, "0 1\n1 2\n2 3\n3 0\n").expect("write cycle");
    let line = fringe_line(&cli(&["build", "-i", &cycle, "-o", &path("cycle.idx")]));
    assert_eq!(
        line,
        "fringe: 2 of 4 vertices (0 leaves, 2 of degree 2), core |E| = 1 incl. 1 shortcuts"
    );
    std::fs::remove_dir_all(&dir).ok();
}

//! The §7 gate: every committed `results/fig*.json` of Figures 7–10 is
//! what the code regenerates, the paper's shape claims hold on it, and
//! Figure 11's timings keep their order.
//!
//! Release only, one figure at a time (~2.5 min on 2 vCPUs, most of it
//! Fig. 10; a debug build takes minutes per figure):
//!
//! ```text
//! cargo test --release -p bellwether-bench --test figures -- --include-ignored
//! ```
//!
//! A change that moves a figure regenerates its JSON with the `figNN`
//! binary in the same commit and says why.

use bellwether_bench::figures::{self, Fig07};
use bellwether_bench::{results_dir, FigureReport};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Relative tolerance on a committed number: datagen's Box–Muller draws
/// go through the platform libm (`ln`, `sin`, `cos`, `exp`).
const REL_TOL: f64 = 1e-9;

/// One figure at a time, so Fig. 11's timings are not taken beside
/// another figure's work.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Figure 7 at full size, computed once: Fig. 9(b) is judged against it.
fn fig07() -> &'static Fig07 {
    static FIG07: OnceLock<Fig07> = OnceLock::new();
    FIG07.get_or_init(|| figures::fig07(false))
}

/// JSON text split into tokens: punctuation, whole strings (escapes
/// kept), and bare words (numbers, `null`).
fn tokens(json: &str) -> Vec<&str> {
    let (bytes, mut out, mut i) = (json.as_bytes(), Vec::new(), 0);
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b if b.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            b'{' | b'}' | b'[' | b']' | b',' | b':' => i += 1,
            b'"' => {
                i += 1;
                while bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            _ => {
                while i < bytes.len() && !b"{}[],:\" \t\r\n".contains(&bytes[i]) {
                    i += 1;
                }
            }
        }
        out.push(&json[start..i]);
    }
    out
}

fn numbers_close(a: &str, b: &str) -> bool {
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(a), Ok(b)) => (a - b).abs() <= REL_TOL * a.abs().max(b.abs()),
        _ => false,
    }
}

/// The first token where `fig.to_json()` leaves the committed file,
/// naming the file, the series and the x value; `None` if every string
/// and punctuation mark is equal and every number within [`REL_TOL`].
fn first_difference(fig: &FigureReport) -> Option<String> {
    let path = results_dir().join(format!("{}.json", fig.id));
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let fresh = fig.to_json();
    let (old, new) = (tokens(&committed), tokens(&fresh));
    let (mut series, mut x) = ("-", "-");
    for i in 0..old.len().max(new.len()) {
        let (a, b) = (old.get(i).copied(), new.get(i).copied());
        if let (Some(a), Some(b)) = (a, b) {
            if i >= 2 && old[i - 2] == "\"name\"" && old[i - 1] == ":" {
                series = a;
            }
            if i >= 1 && old[i - 1] == "[" && a.parse::<f64>().is_ok() {
                x = a;
            }
            if a == b || numbers_close(a, b) {
                continue;
            }
        }
        return Some(format!(
            "{}.json: series {series}, x = {x}: committed {}, regenerated {}",
            fig.id,
            a.unwrap_or("<end of file>"),
            b.unwrap_or("<end of file>"),
        ));
    }
    None
}

/// Panic with the first difference of every report that left its file.
fn assert_committed(reports: &[FigureReport]) {
    let diffs: Vec<String> = reports.iter().filter_map(first_difference).collect();
    assert!(
        diffs.is_empty(),
        "the code no longer regenerates results/ (rerun the figure binary, commit the JSON, say why):\n  {}",
        diffs.join("\n  ")
    );
}

fn report<'a>(reports: &'a [FigureReport], id: &str) -> &'a FigureReport {
    reports
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("no report {id}"))
}

/// `(x, y)` of one series, every y present.
fn points(fig: &FigureReport, name: &str) -> Vec<(f64, f64)> {
    let series = fig.series.iter().find(|s| s.name == name);
    let series = series.unwrap_or_else(|| panic!("{} has no series {name:?}", fig.id));
    let y = |&(x, y): &(f64, Option<f64>)| {
        (
            x,
            y.unwrap_or_else(|| panic!("{} {name:?} has no value at x = {x}", fig.id)),
        )
    };
    series.points.iter().map(y).collect()
}

fn ys(fig: &FigureReport, name: &str) -> Vec<f64> {
    points(fig, name).into_iter().map(|(_, y)| y).collect()
}

fn max_y(fig: &FigureReport) -> f64 {
    let all = fig
        .series
        .iter()
        .flat_map(|s| s.points.iter().filter_map(|p| p.1));
    all.fold(f64::NEG_INFINITY, f64::max)
}

fn non_decreasing(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] <= w[1])
}

// ---- Figure 7 ------------------------------------------------------------

/// 7(a): `Bel < Smp < Avg` at every budget; every bellwether lies in the
/// planted state MD; the bellwether stops changing from budget 45.
fn fig07a_bellwether_beats_sampling_beats_average_and_settles_in_md(fig: &Fig07) {
    let a = report(&fig.reports, "fig07a");
    let (bel, smp, avg) = (points(a, "Bel Err"), ys(a, "Smp Err"), ys(a, "Avg Err"));
    for (((budget, bel), smp), avg) in bel.iter().zip(&smp).zip(&avg) {
        assert!(
            bel < smp && smp < avg,
            "budget {budget}: Bel {bel}, Smp {smp}, Avg {avg}"
        );
    }
    for (budget, label) in &fig.winners_cv {
        assert!(
            label.ends_with(", MD]"),
            "budget {budget}: bellwether {label} is not in MD"
        );
    }
    let plateau: Vec<_> = bel.iter().filter(|(budget, _)| *budget >= 45.0).collect();
    assert!(
        plateau.windows(2).all(|w| w[0].1 == w[1].1),
        "no plateau from budget 45: {plateau:?}"
    );
}

/// 7(b): the bellwether is almost unique at every budget.
fn fig07b_almost_no_region_is_indistinguishable(fig: &Fig07) {
    let b = report(&fig.reports, "fig07b");
    assert!(
        max_y(b) <= 0.01,
        "an indistinguishable fraction above 0.01: {}",
        max_y(b)
    );
}

/// 7(c): training-set error finds the same bellwether as CV at every
/// budget, with an error within 4%.
fn fig07c_training_set_error_tracks_cv(fig: &Fig07) {
    let (a, c) = (
        report(&fig.reports, "fig07a"),
        report(&fig.reports, "fig07c"),
    );
    for ((budget, cv), ts) in points(a, "Bel Err").iter().zip(ys(c, "Bel Err")) {
        assert!(
            (ts - cv).abs() <= 0.04 * cv,
            "budget {budget}: training-set {ts} vs CV {cv}"
        );
    }
    assert_eq!(
        fig.winners_training, fig.winners_cv,
        "the two measures pick different bellwethers"
    );
}

#[test]
#[ignore = "release only"]
fn fig07_is_committed_and_has_the_papers_shape() {
    let _serial = serial();
    let fig = fig07();
    assert_committed(&fig.reports);
    fig07a_bellwether_beats_sampling_beats_average_and_settles_in_md(fig);
    fig07b_almost_no_region_is_indistinguishable(fig);
    fig07c_training_set_error_tracks_cv(fig);
}

// ---- Figure 8 ------------------------------------------------------------

/// 8: on a dataset whose item subsets barely differ, the tree and the
/// cube stay within ±10% of basic search at every budget.
fn fig08_tree_and_cube_stay_within_ten_percent_of_basic(fig: &FigureReport) {
    let basic = points(fig, "Basic");
    for method in ["Tree", "Cube"] {
        for ((budget, basic), y) in basic.iter().zip(ys(fig, method)) {
            assert!(
                (y - basic).abs() <= 0.1 * basic,
                "budget {budget}: {method} {y}, Basic {basic}"
            );
        }
    }
}

#[test]
#[ignore = "release only"]
fn fig08_is_committed_and_has_the_papers_shape() {
    let _serial = serial();
    let reports = figures::fig08(false);
    assert_committed(&reports);
    fig08_tree_and_cube_stay_within_ten_percent_of_basic(report(&reports, "fig08"));
}

// ---- Figure 9 ------------------------------------------------------------

/// 9(a): the bellwether beats the average region at every budget, and a
/// larger budget never makes it worse.
fn fig09a_bellwether_beats_average_and_never_worsens(fig: &FigureReport) {
    let (bel, avg) = (points(fig, "Bel Err"), ys(fig, "Avg Err"));
    for ((budget, bel), avg) in bel.iter().zip(&avg) {
        assert!(bel < avg, "budget {budget}: Bel {bel}, Avg {avg}");
    }
    let bel: Vec<f64> = bel.iter().map(|p| p.1).collect();
    assert!(
        bel.windows(2).all(|w| w[0] >= w[1]),
        "Bel Err rises with the budget: {bel:?}"
    );
}

/// 9(b): with no planted bellwether, more regions are indistinguishable
/// from the winner at every budget than at any budget of Fig. 7(b).
fn fig09b_more_regions_are_indistinguishable_than_in_mail_order(fig: &FigureReport, mail: f64) {
    for (budget, frac) in points(fig, "95%") {
        assert!(
            frac > mail,
            "budget {budget}: 95% fraction {frac} not above mail order's {mail}"
        );
    }
}

/// 9(c): no item-centric method is best at every budget.
fn fig09c_no_method_wins_everywhere(fig: &FigureReport) {
    let curves: Vec<(&str, Vec<f64>)> = fig
        .series
        .iter()
        .map(|s| (s.name.as_str(), ys(fig, &s.name)))
        .collect();
    for (name, ys) in &curves {
        let everywhere = (0..ys.len()).all(|i| curves.iter().all(|(_, other)| ys[i] <= other[i]));
        assert!(!everywhere, "{name} is best at every budget");
    }
}

#[test]
#[ignore = "release only"]
fn fig09_is_committed_and_has_the_papers_shape() {
    let _serial = serial();
    let reports = figures::fig09(false);
    assert_committed(&reports);
    fig09a_bellwether_beats_average_and_never_worsens(report(&reports, "fig09a"));
    let mail = max_y(report(&fig07().reports, "fig07b"));
    fig09b_more_regions_are_indistinguishable_than_in_mail_order(report(&reports, "fig09b"), mail);
    fig09c_no_method_wins_everywhere(report(&reports, "fig09c"));
}

// ---- Figure 10 -----------------------------------------------------------

/// 10(a): cube and tree error grow with the noise, the cube is never
/// behind the tree, and both stay at most a fifth of basic search's.
fn fig10a_cube_and_tree_track_the_noise_far_below_basic(fig: &FigureReport) {
    let (cube, tree, basic) = (points(fig, "cube"), ys(fig, "tree"), ys(fig, "basic"));
    let cube_ys: Vec<f64> = cube.iter().map(|p| p.1).collect();
    assert!(
        non_decreasing(&cube_ys) && non_decreasing(&tree),
        "cube {cube_ys:?}, tree {tree:?}"
    );
    for (((noise, cube), tree), basic) in cube.iter().zip(&tree).zip(&basic) {
        assert!(
            cube <= tree,
            "noise {noise}: cube {cube} behind tree {tree}"
        );
        assert!(
            cube.max(*tree) <= basic / 5.0,
            "noise {noise}: cube {cube}, tree {tree}, basic {basic}"
        );
    }
}

/// 10(b): cube and tree beat basic search at every concept size, both
/// degrade from 3 nodes to 63, and their advantage over basic shrinks.
fn fig10b_the_advantage_shrinks_with_concept_size(fig: &FigureReport) {
    let (cube, tree, basic) = (points(fig, "cube"), ys(fig, "tree"), ys(fig, "basic"));
    for (((nodes, cube), tree), basic) in cube.iter().zip(&tree).zip(&basic) {
        assert!(
            cube < basic && tree < basic,
            "{nodes} nodes: cube {cube}, tree {tree}, basic {basic}"
        );
    }
    let (first, last) = (0, cube.len() - 1);
    assert_eq!((cube[first].0, cube[last].0), (3.0, 63.0));
    assert!(
        cube[last].1 > cube[first].1 && tree[last] > tree[first],
        "no degradation with size"
    );
    let advantage = |i: usize| basic[i] / cube[i].1;
    assert!(
        advantage(last) < advantage(first),
        "basic/cube {} at 63 nodes vs {} at 3",
        advantage(last),
        advantage(first)
    );
}

#[test]
#[ignore = "release only"]
fn fig10_is_committed_and_has_the_papers_shape() {
    let _serial = serial();
    let reports = figures::fig10(false);
    assert_committed(&reports);
    fig10a_cube_and_tree_track_the_noise_far_below_basic(report(&reports, "fig10a"));
    fig10b_the_advantage_shrinks_with_concept_size(report(&reports, "fig10b"));
}

// ---- Figure 11 -----------------------------------------------------------

/// 11: with every region read from disk, the scan-based algorithms beat
/// the naive ones at every size (`naive cube > single-scan > optimized`,
/// `naive tree > RF tree`). Timings are not committed values, so this
/// runs at quick size; the scan counts behind the order are exact in
/// `tests/lemmas.rs`.
#[test]
#[ignore = "release only"]
fn fig11_scan_based_algorithms_beat_naive_ones_at_quick_size() {
    let _serial = serial();
    let reports = figures::fig11(true);
    let orders = [
        (
            "fig11a",
            ["naive cube", "single-scan cube", "optimized cube"].as_slice(),
        ),
        ("fig11a", &["naive tree", "RF tree"]),
        ("fig11b", &["single-scan cube", "optimized cube"]),
    ];
    for (id, slow_to_fast) in orders {
        let fig = report(&reports, id);
        for pair in slow_to_fast.windows(2) {
            for ((x, slow), fast) in points(fig, pair[0]).iter().zip(ys(fig, pair[1])) {
                assert!(
                    *slow > fast,
                    "{id} at {x}: {} {slow}s, {} {fast}s",
                    pair[0],
                    pair[1]
                );
            }
        }
    }
}

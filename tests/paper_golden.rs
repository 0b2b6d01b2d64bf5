//! The paper's evaluation — Table 1 and E1–E11, as `experiments paper`
//! prints it — regenerated in process and compared byte for byte with
//! `tests/golden/paper.txt`. Every run is a seeded simulation, so any
//! difference is a behaviour change: explain it, then re-record with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test paper_golden
//! ```

use std::path::Path;

#[test]
fn paper_numbers_match_the_golden() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/paper.txt");
    let actual = dg_bench::paper();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write the golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read tests/golden/paper.txt");
    if actual == golden {
        return;
    }
    // Name each changed row with the experiment it belongs to.
    let (old, new): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), actual.lines().collect());
    let mut section = "";
    let mut report = String::new();
    for i in 0..old.len().max(new.len()) {
        let (o, n) = (old.get(i).copied(), new.get(i).copied());
        if let Some(line) = n.filter(|l| l.starts_with("== ")) {
            section = line;
        }
        if o != n {
            report.push_str(&format!(
                "{section}\n  golden: {}\n  now:    {}\n",
                o.unwrap_or("<none>"),
                n.unwrap_or("<none>")
            ));
        }
    }
    panic!("the paper's numbers moved (UPDATE_GOLDEN=1 re-records them):\n{report}");
}

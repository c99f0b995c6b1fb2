//! Table 2: the N:8 patterns a TTC-VEGETA engine supports once TASD chaining (≤ 2 terms)
//! over its native {1:8, 2:8, 4:8} menu is allowed.

use tasd::PatternMenu;
use tasd_bench::print_table;

fn main() {
    let menu = PatternMenu::vegeta_m8();
    let table = menu.compose_table(2);
    let rows: Vec<Vec<String>> = table
        .iter()
        .map(|row| {
            vec![
                row.target.to_string(),
                row.series.as_ref().map_or("-".to_string(), |s| {
                    if s.is_dense() {
                        "Dense".to_string()
                    } else {
                        s.to_string()
                    }
                }),
            ]
        })
        .collect();
    print_table(
        "Supported sparse patterns with TTC-VEGETA (native 1:8/2:8/4:8, TASD <= 2 terms)",
        &["pattern", "TASD series"],
        &rows,
    );
    println!(
        "\nsupported: {} of {} N:8 patterns",
        table.iter().filter(|r| r.is_supported()).count(),
        table.len()
    );
    // Also show the fixed STC-style menus for contrast.
    for (label, menu, terms) in [
        ("TTC-STC-M4", PatternMenu::stc_m4(), 1usize),
        ("TTC-VEGETA-M4", PatternMenu::vegeta_m4(), 2),
    ] {
        let t = menu.compose_table(terms);
        let rows: Vec<Vec<String>> = t
            .iter()
            .map(|r| {
                vec![
                    r.target.to_string(),
                    r.series.as_ref().map_or("-".to_string(), |s| s.to_string()),
                ]
            })
            .collect();
        print_table(
            &format!("{label} composition table"),
            &["pattern", "TASD series"],
            &rows,
        );
    }
}

//! §5.4: area overhead of the TASD units on top of a structured-sparse PE array
//! (comparator-tree model standing in for the paper's RTL synthesis).

use tasd_accelsim::area::{tasd_units_required, ttc_vegeta_overhead, AreaModel};
use tasd_bench::print_table;

fn main() {
    let model = AreaModel::standard();
    let mut rows = Vec::new();
    for m in [4usize, 8, 16] {
        let units = tasd_units_required(2, m);
        let overhead = model.tasd_overhead_fraction(256, units, m);
        rows.push(vec![
            format!("N:{m}"),
            units.to_string(),
            format!("{:.0}", model.tasd_unit_ge(m)),
            format!("{:.0}", model.pe_ge()),
            format!("{:.2}%", overhead * 100.0),
        ]);
    }
    print_table(
        "TASD-unit area overhead per 256-PE TTC (comparator-tree model)",
        &[
            "block size",
            "TASD units (Little's law)",
            "GE per unit",
            "GE per PE",
            "overhead",
        ],
        &rows,
    );
    println!(
        "\npaper configuration (M=8, 16 units): {:.2}% of PE-array area (paper reports <= 2%)",
        ttc_vegeta_overhead(&model, 8) * 100.0
    );
}

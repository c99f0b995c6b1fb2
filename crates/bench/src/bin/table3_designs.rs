//! Table 3: the hardware design points compared throughout the evaluation, their sparsity
//! support, TASD term limits, and relative area.

use tasd_accelsim::HwDesign;
use tasd_bench::print_table;

fn main() {
    let mut rows = Vec::new();
    for design in HwDesign::main_comparison()
        .into_iter()
        .chain(std::iter::once(HwDesign::Vegeta))
    {
        let menu = design
            .pattern_menu()
            .map(|m| {
                m.native_patterns()
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .unwrap_or_else(|| {
                if design.supports_unstructured() {
                    "unstructured".to_string()
                } else {
                    "none".to_string()
                }
            });
        rows.push(vec![
            design.label().to_string(),
            menu,
            design.max_tasd_terms().to_string(),
            format!("{:.2}x", design.relative_area()),
        ]);
    }
    print_table(
        "Hardware designs (sparsity support, TASD term limit, relative area)",
        &[
            "design",
            "native sparsity support",
            "TASD terms",
            "relative area",
        ],
        &rows,
    );
}

//! Table I — average cumulative cycles to execute all HMMA instructions
//! up to SET n on Turing (RTX 2080), for every tile size and precision.

use tcsim_bench::{parse_cli, print_table, write_results};
use tcsim_core::{mma_timing, turing_set_completions, TuringMode};
use tcsim_isa::{Layout, WmmaDirective, WmmaShape, WmmaType};
use tcsim_trace::json::JsonWriter;

fn main() {
    let cli = parse_cli();
    println!("Table I: Turing HMMA cumulative cycles per SET");
    let combos: [(WmmaShape, TuringMode, &str); 10] = [
        (
            WmmaShape::M16N16K16,
            TuringMode::F16AccF32,
            "16Bit (FP32 Acc)",
        ),
        (
            WmmaShape::M16N16K16,
            TuringMode::F16AccF16,
            "16Bit (FP16 Acc)",
        ),
        (WmmaShape::M16N16K16, TuringMode::Int8, "8Bit"),
        (
            WmmaShape::M32N8K16,
            TuringMode::F16AccF32,
            "16Bit (FP32 Acc)",
        ),
        (
            WmmaShape::M32N8K16,
            TuringMode::F16AccF16,
            "16Bit (FP16 Acc)",
        ),
        (WmmaShape::M32N8K16, TuringMode::Int8, "8Bit"),
        (
            WmmaShape::M8N32K16,
            TuringMode::F16AccF32,
            "16Bit (FP32 Acc)",
        ),
        (
            WmmaShape::M8N32K16,
            TuringMode::F16AccF16,
            "16Bit (FP16 Acc)",
        ),
        (WmmaShape::M8N32K16, TuringMode::Int8, "8Bit"),
        (WmmaShape::M8N8K32, TuringMode::Int4, "4Bit"),
    ];
    let mut rows = Vec::new();
    let mut json = JsonWriter::array();
    for (shape, mode, label) in combos {
        let c = turing_set_completions(shape, mode).expect("supported combo");
        let mut row = vec![shape.to_string(), label.to_string()];
        for i in 0..4 {
            row.push(
                c.get(i)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "-".into()),
            );
        }
        rows.push(row);
        json.begin_object();
        json.key("tile").display(shape);
        json.field_str("precision", label);
        json.key("set_completions").u64s(&c);
        json.end_object();
    }
    print_table(
        "Average cumulative clock cycles",
        &["tile", "precision", "SET 1", "SET 2", "SET 3", "SET 4"],
        &rows,
    );
    if let Some(path) = &cli.json {
        write_results(path, &json.finish());
    }

    // Derived observations the paper makes in §III-C2 / §III-D2.
    let volta_mixed = 54;
    let t = turing_set_completions(WmmaShape::M16N16K16, TuringMode::F16AccF32).expect("supported");
    println!(
        "\n16x16x16 mixed precision: Turing {} cycles vs Volta {} cycles (paper: 99 vs 54)",
        t.last().expect("non-empty"),
        volta_mixed
    );
    let dir = WmmaDirective::Mma {
        shape: WmmaShape::M16N16K16,
        a_layout: Layout::Row,
        b_layout: Layout::Col,
        ab_type: WmmaType::S8,
        c_type: WmmaType::S32,
        d_type: WmmaType::S32,
    };
    let timing = mma_timing(false, &dir);
    println!(
        "8-bit m16n16k16 timing used by the SM model: latency {}, initiation interval {}",
        timing.latency, timing.initiation_interval
    );
}

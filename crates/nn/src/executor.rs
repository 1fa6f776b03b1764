//! Graph executor: runs a lowered plan on the simulated GPU with a
//! per-layer differential check against the f32 reference.
//!
//! Two schedules share one step runner (`run_step`), which turns a
//! lowered step into its launches, checks and report rows:
//!
//! * [`run_chained`] — the real inference schedule: every launch runs in
//!   order on ONE [`Gpu`], each layer consuming the previous layer's
//!   device output. Composites run on a private fresh GPU (see
//!   `crate::block`). With `trace` set, each launch gets its own trace
//!   window, giving cycles/IPC/tensor-occupancy per launch.
//! * [`run_parallel`] — a what-if schedule for sweep-style throughput
//!   studies: step inputs are pre-computed host-side by the reference
//!   executor, which breaks the data dependence and lets every step run
//!   as an independent [`Sweep`] job (fresh GPU each). Cycle counts per
//!   layer are identical to the chained mode (every launch boundary
//!   flushes the caches); only wall-clock simulation time changes.
//!
//! Every device output is checked against the reference: GEMM layers
//! within [`gemm_tolerance`] of the quantized-f16/f32-accumulate oracle,
//! elementwise layers bit-exact.

use crate::block::{exec_attention, exec_mlp};
use crate::graph::Graph;
use crate::kernels::{
    bias_grid, bias_kernel, elems_grid, gelu_kernel, layernorm_kernel, maxpool_grid,
    maxpool_kernel, relu_kernel, softmax_kernel,
};
use crate::launch::{launch_f32, launch_gemm};
use crate::lower::{
    gemm_tolerance, layernorm_tolerance, lower, softmax_tolerance, GemmOp, GemmSource,
    LoweredLayer, LoweredOp,
};
use crate::reference::run_layer;
use crate::tensor::Tensor;
use tcsim_isa::{Dim3, Kernel};
use tcsim_sim::{Gpu, GpuConfig, Sweep};
use tcsim_trace::json::JsonWriter;

/// Per-layer execution record: timing, the kernel it dispatched to, and
/// the differential-check result.
#[derive(Clone, Debug)]
pub struct LayerReport {
    /// Lowered-layer name (fused names joined with `+`).
    pub name: String,
    /// Device kernel name, or `host` for reshape-only steps.
    pub kernel: String,
    /// Problem dimensions, human-readable.
    pub dims: String,
    /// Simulated cycles (0 for host steps).
    pub cycles: u64,
    /// Warp instructions issued.
    pub instructions: u64,
    /// HMMA pipe occupancy from the per-launch trace window, if traced.
    pub hmma_occupancy: Option<f64>,
    /// Largest |device − reference| over the layer output.
    pub max_err: f32,
    /// Permitted bound for `max_err`.
    pub tolerance: f32,
}

impl LayerReport {
    /// Warp instructions per cycle (0 for host steps).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("name", &self.name);
        w.field_str("kernel", &self.kernel);
        w.field_str("dims", &self.dims);
        w.field_u64("cycles", self.cycles);
        w.field_u64("instructions", self.instructions);
        w.field_f64("ipc", self.ipc());
        match self.hmma_occupancy {
            Some(o) => w.field_f64("hmma_occupancy", o),
            None => w.key("hmma_occupancy").null(),
        }
        w.field_f64("max_err", f64::from(self.max_err));
        w.field_f64("tolerance", f64::from(self.tolerance));
        w.end_object();
    }
}

/// Whole-network inference result.
#[derive(Clone, Debug)]
pub struct InferenceReport {
    /// Network name.
    pub network: String,
    /// `chained` or `parallel`.
    pub mode: String,
    /// One record per lowered layer, in execution order.
    pub layers: Vec<LayerReport>,
    /// Final activation (device output in chained mode; reference output
    /// in parallel mode, where device activations are not propagated).
    pub output: Vec<f32>,
}

impl InferenceReport {
    /// Sum of simulated cycles over all launches.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Worst layer error relative to its own tolerance (≤ 1 means every
    /// layer passed).
    pub fn worst_rel_err(&self) -> f32 {
        self.layers
            .iter()
            .filter(|l| l.tolerance > 0.0 || l.max_err > 0.0)
            .map(|l| {
                if l.tolerance == 0.0 {
                    if l.max_err == 0.0 {
                        0.0
                    } else {
                        f32::INFINITY
                    }
                } else {
                    l.max_err / l.tolerance
                }
            })
            .fold(0.0, f32::max)
    }

    /// Panics if any layer's device output drifted beyond its tolerance.
    pub fn assert_within_tolerance(&self) {
        for l in &self.layers {
            assert!(
                l.max_err <= l.tolerance,
                "{}: layer {} max_err {} exceeds tolerance {}",
                self.network,
                l.name,
                l.max_err,
                l.tolerance
            );
        }
    }

    /// Deterministic JSON (no wall-clock fields).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::value();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes [`InferenceReport::to_json`]'s object into `w`, in place.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("network", &self.network);
        w.field_str("mode", &self.mode);
        w.field_u64("total_cycles", self.total_cycles());
        w.field_f64("worst_rel_err", f64::from(self.worst_rel_err()));
        w.key("layers").begin_array();
        for l in &self.layers {
            l.write_json(w);
        }
        w.end_array();
        // Non-finite outputs become `null`: NaN and infinities are not JSON.
        w.key("output").begin_array();
        for &v in &self.output {
            w.f64(f64::from(v));
        }
        w.end_array();
        w.end_object();
    }
}

/// Applies the reference executor over the graph layers a lowered step
/// covers, producing the oracle for that step's device output.
fn reference_span(graph: &Graph, span: &std::ops::Range<usize>, input: &Tensor) -> Tensor {
    let mut act = input.clone();
    for idx in span.clone() {
        act = run_layer(&graph.layers()[idx].1, &act);
    }
    act
}

/// The A operand (`m × k`) of a lowered GEMM read from the activation `x`:
/// im2col for conv, the activation verbatim for linear. Both are two
/// offset tables, element `(row, col)` sitting at `x[rows[row] +
/// cols[col]]`. im2col is separable: row `oy·ow + ox` (an output pixel)
/// and column `(c·kh + dy)·kw + dx` (a patch element) meet at
/// `pixel + patch` of the `[c, h, w]` activation.
fn operand_a<'a>(g: &'a GemmOp, x: &'a [f32]) -> impl Fn(usize, usize) -> f32 + 'a {
    let (rows, cols): (Vec<usize>, Vec<usize>) = match &g.source {
        GemmSource::Conv {
            in_c,
            kh,
            kw,
            h,
            w,
            oh,
            ow,
        } => (
            (0..*oh)
                .flat_map(|oy| (0..*ow).map(move |ox| oy * w + ox))
                .collect(),
            (0..*in_c)
                .flat_map(|c| {
                    (0..*kh).flat_map(move |dy| (0..*kw).map(move |dx| (c * h + dy) * w + dx))
                })
                .collect(),
        ),
        GemmSource::Linear => ((0..g.m).map(|r| r * g.k).collect(), (0..g.k).collect()),
    };
    move |row, col| x[rows[row] + cols[col]]
}

/// The B operand (`k × n`) of a lowered GEMM: its weight.
fn operand_b(g: &GemmOp) -> impl Fn(usize, usize) -> f32 + '_ {
    let wt = g.weight.data();
    move |row, col| wt[row * g.n + col]
}

/// Shapes a lowered GEMM's cropped `m × n` output as the step's
/// activation, transposing implicit-GEMM output (`[pixel][filter]`) to
/// `[c, h, w]`.
fn gemm_activation(g: &GemmOp, d: Vec<f32>, shape: &[usize]) -> Tensor {
    match &g.source {
        GemmSource::Conv { oh, ow, .. } => {
            Tensor::from_fn(shape.to_vec(), |i| d[(i % (oh * ow)) * g.n + i / (oh * ow)])
        }
        GemmSource::Linear => Tensor::new(shape.to_vec(), d),
    }
}

/// The kernel, grid, inputs (in parameter order) and dims string of a
/// step that launches one f32 kernel.
fn f32_launch<'a>(op: &'a LoweredOp, act: &'a Tensor) -> (Kernel, Dim3, Vec<&'a [f32]>, String) {
    let (x, len) = (act.data(), act.len());
    match op {
        LoweredOp::MaxPool(p) => {
            let (c, h, w) = (act.shape()[0], act.shape()[1], act.shape()[2]);
            let kernel = maxpool_kernel(c, h, w, p.k);
            let grid = maxpool_grid(c, h, w, p.k).into();
            (kernel, grid, vec![x], format!("pool {c}x{h}x{w} k{}", p.k))
        }
        LoweredOp::Relu => (
            relu_kernel(len),
            elems_grid(len).into(),
            vec![x],
            format!("relu {len}"),
        ),
        LoweredOp::Bias(bias) => {
            let (rows, cols, per_row) = match act.shape() {
                [c, h, w] => (*c, h * w, true),
                [b, f] => (*b, *f, false),
                other => panic!("bias on rank-{} activation", other.len()),
            };
            let (kernel, grid) = (
                bias_kernel(rows, cols, per_row),
                bias_grid(rows, cols).into(),
            );
            (
                kernel,
                grid,
                vec![x, bias.data()],
                format!("bias {rows}x{cols}"),
            )
        }
        LoweredOp::Softmax { cols, scale } => {
            let rows = act.shape()[0];
            let kernel = softmax_kernel(*cols, *scale);
            (
                kernel,
                Dim3::from(rows as u32),
                vec![x],
                format!("softmax {rows}x{cols}"),
            )
        }
        LoweredOp::LayerNorm(ln) => {
            let rows = act.shape()[0];
            let kernel = layernorm_kernel(ln.dim, ln.eps);
            let inputs = vec![x, ln.gamma.data(), ln.beta.data()];
            (
                kernel,
                Dim3::from(rows as u32),
                inputs,
                format!("layernorm {rows}x{}", ln.dim),
            )
        }
        LoweredOp::Gelu => (
            gelu_kernel(len),
            elems_grid(len).into(),
            vec![x],
            format!("gelu {len}"),
        ),
        other => unreachable!("not an f32 kernel step: {other:?}"),
    }
}

fn tolerance_of(op: &LoweredOp) -> f32 {
    match op {
        LoweredOp::Gemm(g) => gemm_tolerance(g.k),
        LoweredOp::Softmax { cols, .. } => softmax_tolerance(*cols),
        LoweredOp::LayerNorm(ln) => layernorm_tolerance(ln.dim),
        _ => 0.0,
    }
}

/// Runs one lowered step on `gpu`: a host reshape, a composite's staged
/// launches (each stage checked inside [`crate::block`]), or one launch
/// held to `expected()`, the reference output, which is computed only for
/// such a launch. Returns the step's report rows and output activation.
fn run_step(
    gpu: &mut Gpu,
    step: &LoweredLayer,
    act: &Tensor,
    expected: impl FnOnce() -> Tensor,
    trace: bool,
) -> (Vec<LayerReport>, Tensor) {
    let shape = step.output_shape.clone();
    let (stats, kernel, dims, out) = match &step.op {
        LoweredOp::Reshape => {
            let out = act.reshape(shape);
            let report = LayerReport {
                name: step.name.clone(),
                kernel: "host".into(),
                dims: format!("reshape {} elems", out.len()),
                cycles: 0,
                instructions: 0,
                hmma_occupancy: None,
                max_err: 0.0,
                tolerance: 0.0,
            };
            return (vec![report], out);
        }
        LoweredOp::Attention(a) => return exec_attention(gpu, trace, &step.name, a, act),
        LoweredOp::Mlp(m) => return exec_mlp(gpu, trace, &step.name, m, act),
        LoweredOp::Gemm(g) => {
            let (a, b) = (operand_a(g, act.data()), operand_b(g));
            let bias = g.bias.as_ref().map(Tensor::data);
            let (m, n, k) = (g.m, g.n, g.k);
            let (stats, kernel, d) =
                launch_gemm(gpu, trace, g.tile, g.epilogue, (m, n, k), a, b, bias);
            let (pm, pn, pk) = (g.pm, g.pn, g.pk);
            let dims = format!("gemm {m}x{n}x{k} pad {pm}x{pn}x{pk} {}", g.tile.name());
            (stats, kernel, dims, gemm_activation(g, d, &shape))
        }
        op => {
            let (kernel, grid, inputs, dims) = f32_launch(op, act);
            let len = shape.iter().product();
            let (stats, kernel, d) = launch_f32(gpu, trace, kernel, grid, &inputs, len);
            (stats, kernel, dims, Tensor::new(shape, d))
        }
    };
    let report = LayerReport {
        name: step.name.clone(),
        kernel,
        dims,
        cycles: stats.cycles,
        instructions: stats.instructions,
        hmma_occupancy: stats.trace.as_ref().map(|t| t.hmma_occupancy()),
        max_err: out.max_abs_diff(&expected()),
        tolerance: tolerance_of(&step.op),
    };
    (vec![report], out)
}

/// Runs the network as a real inference would: one GPU, launches in
/// dependency order, device activations flowing layer to layer.
pub fn run_chained(graph: &Graph, input: &Tensor, cfg: GpuConfig, trace: bool) -> InferenceReport {
    let mut gpu = Gpu::new(cfg.clone());
    let mut act = input.clone();
    let mut layers = Vec::new();
    for step in lower(graph) {
        let expected = || reference_span(graph, &step.span, &act);
        // A composite runs on a private fresh GPU, as every step does in
        // parallel mode (see `crate::block`).
        let (reports, out) = if matches!(step.op, LoweredOp::Attention(_) | LoweredOp::Mlp(_)) {
            run_step(&mut Gpu::new(cfg.clone()), &step, &act, expected, trace)
        } else {
            run_step(&mut gpu, &step, &act, expected, trace)
        };
        layers.extend(reports);
        act = out;
    }
    InferenceReport {
        network: graph.name.clone(),
        mode: "chained".into(),
        layers,
        output: act.data().to_vec(),
    }
}

/// Runs every step as an independent sweep job (per-layer parallelism):
/// step inputs come from the host reference, so the jobs share nothing.
/// `threads = 1` runs serially; per-layer cycle counts match
/// [`run_chained`] either way.
pub fn run_parallel(
    graph: &Graph,
    input: &Tensor,
    cfg: GpuConfig,
    trace: bool,
    threads: usize,
) -> InferenceReport {
    let plan = lower(graph);
    // Pre-compute each step's input (and oracle output) on the host.
    let mut acts = vec![input.clone()];
    for ll in &plan {
        let next = reference_span(graph, &ll.span, acts.last().unwrap());
        acts.push(next);
    }

    let mut sweep: Sweep<Vec<LayerReport>> = Sweep::new();
    for (i, step) in plan.into_iter().enumerate() {
        let weight = match &step.op {
            LoweredOp::Gemm(g) => (g.pm * g.pn * g.pk) as u64,
            LoweredOp::Attention(a) => (acts[i].len() * a.d_model * 6) as u64,
            LoweredOp::Mlp(m) => (acts[i].len() * m.d_ff * 2) as u64,
            _ => acts[i].len() as u64,
        };
        let (act, expected) = (acts[i].clone(), acts[i + 1].clone());
        sweep.add_weighted(cfg.clone(), weight, move |gpu| {
            run_step(gpu, &step, &act, || expected, trace).0
        });
    }
    let outcome = if threads <= 1 {
        sweep.run_serial()
    } else {
        sweep.run_parallel(threads)
    };
    InferenceReport {
        network: graph.name.clone(),
        mode: "parallel".into(),
        layers: outcome.results.into_iter().flatten().collect(),
        output: acts.last().unwrap().data().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::launch::{read_cropped, upload_f16};
    use crate::lower::{pad16, select};
    use crate::models;
    use tcsim_cutlass::Epilogue;
    use tcsim_f16::F16;

    /// Stages A the way `run_step` hands it to `launch_gemm`.
    fn pack_a(gpu: &mut Gpu, g: &GemmOp, act: &Tensor) -> u64 {
        upload_f16(gpu, g.pm, g.pk, g.m, g.k, operand_a(g, act.data()))
    }

    /// Stages B the way `run_step` hands it to `launch_gemm`.
    fn pack_b(gpu: &mut Gpu, g: &GemmOp) -> u64 {
        upload_f16(gpu, g.pk, g.pn, g.k, g.n, operand_b(g))
    }

    /// The element-at-a-time A packer the row-at-a-time staging replaced, kept verbatim as
    /// the staging reference: one `write_u16` per element, padding never
    /// touched.
    fn legacy_pack_a(gpu: &mut Gpu, g: &GemmOp, act: &Tensor) -> u64 {
        let pa = gpu.alloc((g.pm * g.pk * 2) as u64);
        match &g.source {
            GemmSource::Conv {
                in_c,
                kh,
                kw,
                h,
                w,
                oh,
                ow,
            } => {
                for oy in 0..*oh {
                    for ox in 0..*ow {
                        let row = oy * ow + ox;
                        for c in 0..*in_c {
                            for dy in 0..*kh {
                                for dx in 0..*kw {
                                    let col = (c * kh + dy) * kw + dx;
                                    let v = act.data()[(c * h + oy + dy) * w + ox + dx];
                                    gpu.write_u16(
                                        pa + ((row * g.pk + col) * 2) as u64,
                                        F16::from_f32(v).to_bits(),
                                    );
                                }
                            }
                        }
                    }
                }
            }
            GemmSource::Linear => {
                for r in 0..g.m {
                    for c in 0..g.k {
                        gpu.write_u16(
                            pa + ((r * g.pk + c) * 2) as u64,
                            F16::from_f32(act.data()[r * g.k + c]).to_bits(),
                        );
                    }
                }
            }
        }
        pa
    }

    /// The element-at-a-time B packer the row-at-a-time staging replaced.
    fn legacy_pack_b(gpu: &mut Gpu, g: &GemmOp) -> u64 {
        let pb = gpu.alloc((g.pk * g.pn * 2) as u64);
        for r in 0..g.k {
            for c in 0..g.n {
                gpu.write_u16(
                    pb + ((r * g.pn + c) * 2) as u64,
                    F16::from_f32(g.weight.data()[r * g.n + c]).to_bits(),
                );
            }
        }
        pb
    }

    /// Values that are not f16-exact, so the packed bits show the rounding.
    fn ramp(shape: Vec<usize>) -> Tensor {
        Tensor::from_fn(shape, |i| ((i * 37 % 1013) as f32 - 500.0) / 97.0)
    }

    fn gemm_op(source: GemmSource, m: usize, n: usize, k: usize) -> GemmOp {
        let (pm, pn, pk) = (pad16(m), pad16(n), pad16(k));
        GemmOp {
            source,
            m,
            n,
            k,
            pm,
            pn,
            pk,
            tile: select(pm, pn),
            epilogue: Epilogue::None,
            weight: ramp(vec![k, n]),
            bias: None,
        }
    }

    /// A ragged conv, a ragged linear, a linear whose A and B each cross
    /// a 64 KiB device page with a row straddling the boundary, and one
    /// whose written A rows end in one page while its padding rows reach
    /// into the next.
    fn staging_cases() -> Vec<(GemmOp, Tensor)> {
        let conv = GemmSource::Conv {
            in_c: 3,
            kh: 2,
            kw: 3,
            h: 7,
            w: 9,
            oh: 6,
            ow: 7,
        };
        vec![
            (gemm_op(conv, 42, 5, 18), ramp(vec![3, 7, 9])),
            (gemm_op(GemmSource::Linear, 5, 21, 37), ramp(vec![5, 37])),
            (
                gemm_op(GemmSource::Linear, 130, 150, 300),
                ramp(vec![130, 300]),
            ),
            (gemm_op(GemmSource::Linear, 60, 3, 500), ramp(vec![60, 500])),
        ]
    }

    #[test]
    fn packed_operands_equal_the_per_element_image_and_pages() {
        for (g, act) in staging_cases() {
            let what = format!("{}x{}x{} {:?}", g.m, g.n, g.k, g.source);
            let (mut old, mut new) = (Gpu::new(GpuConfig::mini()), Gpu::new(GpuConfig::mini()));
            // Off the page boundary a fresh allocator starts on.
            assert_eq!(old.alloc(1000), new.alloc(1000));
            let (a_old, a_new) = (
                legacy_pack_a(&mut old, &g, &act),
                pack_a(&mut new, &g, &act),
            );
            let (b_old, b_new) = (legacy_pack_b(&mut old, &g), pack_b(&mut new, &g));
            assert_eq!((a_old, b_old), (a_new, b_new), "{what}: addresses");
            let (a_len, b_len) = (g.pm * g.pk * 2, g.pk * g.pn * 2);
            assert!(
                old.memcpy_d2h(a_old, a_len) == new.memcpy_d2h(a_new, a_len),
                "{what}: padded A image"
            );
            assert!(
                old.memcpy_d2h(b_old, b_len) == new.memcpy_d2h(b_new, b_len),
                "{what}: padded B image"
            );
            assert_eq!(
                old.device_mut().resident_pages(),
                new.device_mut().resident_pages(),
                "{what}: materialised pages"
            );
        }
    }

    #[test]
    fn padding_rows_beyond_the_last_written_page_stay_unmaterialised() {
        // 60 written rows of 1 KiB end 3 KiB short of the page the buffer
        // starts in (it begins 1 KiB into it); rows 60..64 are padding.
        let (g, act) = staging_cases().pop().expect("four cases");
        let mut gpu = Gpu::new(GpuConfig::mini());
        gpu.alloc(1000);
        pack_a(&mut gpu, &g, &act);
        assert_eq!(gpu.device_mut().resident_pages(), 1);
    }

    #[test]
    fn gemm_readback_crops_and_transposes_like_the_per_element_loop() {
        for (g, _) in staging_cases() {
            let mut gpu = Gpu::new(GpuConfig::mini());
            gpu.alloc(1000);
            let pd = gpu.alloc((g.pm * g.pn * 4) as u64);
            for i in 0..g.pm * g.pn {
                gpu.write_u32(pd + (i * 4) as u64, (i as f32 * 0.37 - 11.0).to_bits());
            }
            let at = |row: usize, col: usize| {
                f32::from_bits(gpu.read_u32(pd + ((row * g.pn + col) * 4) as u64))
            };
            let (shape, want) = match &g.source {
                GemmSource::Conv { oh, ow, .. } => {
                    let shape = vec![g.n, *oh, *ow];
                    let want = Tensor::from_fn(shape.clone(), |i| at(i % (oh * ow), i / (oh * ow)));
                    (shape, want)
                }
                GemmSource::Linear => {
                    let shape = vec![g.m, g.n];
                    let want = Tensor::from_fn(shape.clone(), |i| at(i / g.n, i % g.n));
                    (shape, want)
                }
            };
            let d = read_cropped(&gpu, pd, g.m, g.n, g.pm, g.pn);
            assert_eq!(gemm_activation(&g, d, &shape), want, "{:?}", g.source);
        }
    }

    fn tiny_net() -> (Graph, Tensor) {
        let g = models::tiny(7);
        let input = models::input_for(&g, 7);
        (g, input)
    }

    #[test]
    fn chained_runs_tiny_net_within_tolerance() {
        let (g, x) = tiny_net();
        let report = run_chained(&g, &x, GpuConfig::mini(), true);
        report.assert_within_tolerance();
        assert!(report.total_cycles() > 0);
        // Every GEMM layer got a trace window with HMMA samples.
        for l in report
            .layers
            .iter()
            .filter(|l| l.kernel.contains("wmma") || l.kernel.contains("cutlass"))
        {
            assert!(l.hmma_occupancy.is_some(), "{} untraced", l.name);
        }
        tcsim_trace::json::validate_json(&report.to_json()).expect("valid JSON");
    }

    /// A one-layer report whose device output is `got` where the
    /// reference says `want`, held to a tolerance of 1.
    fn report_of(got: &[f32], want: &[f32]) -> InferenceReport {
        InferenceReport {
            network: "probe".into(),
            mode: "chained".into(),
            layers: vec![LayerReport {
                name: "linear0".into(),
                kernel: "wmma_simple".into(),
                dims: "gemm 1x2x1".into(),
                cycles: 100,
                instructions: 10,
                hmma_occupancy: None,
                max_err: crate::tensor::max_abs_err(got, want),
                tolerance: 1.0,
            }],
            output: got.to_vec(),
        }
    }

    #[test]
    #[should_panic(expected = "max_err inf exceeds tolerance 1")]
    fn a_nan_where_the_reference_is_finite_fails_the_tolerance_check() {
        report_of(&[0.5, f32::NAN], &[0.5, 0.25]).assert_within_tolerance();
    }

    #[test]
    fn non_finite_outputs_serialise_as_null() {
        let report = report_of(&[f32::NAN, f32::NEG_INFINITY, 0.5], &[0.0, 0.0, 0.5]);
        let json = report.to_json();
        tcsim_trace::json::validate_json(&json).expect("valid JSON");
        assert!(
            json.ends_with(r#""output":[null,null,0.500000]}"#),
            "{json}"
        );
        assert!(json.contains(r#""max_err":null"#), "{json}");
        // A finite report is what it always was.
        let json = report_of(&[-1.0, 0.5], &[-1.0, 0.25]).to_json();
        assert!(
            json.ends_with(
                r#""max_err":0.250000,"tolerance":1.000000}],"output":[-1.000000,0.500000]}"#
            ),
            "{json}"
        );
    }

    #[test]
    fn parallel_matches_chained_cycles() {
        let (g, x) = tiny_net();
        let chained = run_chained(&g, &x, GpuConfig::mini(), false);
        let parallel = run_parallel(&g, &x, GpuConfig::mini(), false, 2);
        parallel.assert_within_tolerance();
        assert_eq!(chained.layers.len(), parallel.layers.len());
        for (c, p) in chained.layers.iter().zip(&parallel.layers) {
            assert_eq!(c.cycles, p.cycles, "layer {} cycle mismatch", c.name);
            assert_eq!(c.instructions, p.instructions, "layer {}", c.name);
        }
    }

    #[test]
    fn chained_is_deterministic() {
        let (g, x) = tiny_net();
        let a = run_chained(&g, &x, GpuConfig::mini(), true);
        let b = run_chained(&g, &x, GpuConfig::mini(), true);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn standalone_elementwise_layers_run_on_device() {
        // A graph that defeats fusion: pool between conv and bias.
        let w = Tensor::from_fn(vec![4, 4], |i| (i as f32 - 8.0) / 8.0);
        let g = GraphBuilder::new("nofuse", vec![1, 5, 5])
            .conv2d(1, 4, 2, w)
            .maxpool(2)
            .bias(Tensor::from_fn(vec![4], |i| i as f32 / 4.0))
            .relu()
            .build();
        let x = Tensor::from_fn(vec![1, 5, 5], |i| ((i % 7) as f32 - 3.0) / 4.0);
        let report = run_chained(&g, &x, GpuConfig::mini(), false);
        report.assert_within_tolerance();
        let kernels: Vec<&str> = report.layers.iter().map(|l| l.kernel.as_str()).collect();
        assert!(kernels[1].starts_with("nn_maxpool"));
        assert!(kernels[2].starts_with("nn_bias"));
        assert!(kernels[3].starts_with("nn_relu"));
    }
}

//! A modular pipelined datapath ("SoC-style") generator.
//!
//! The complement to the Viterbi decoder's shuffle trellis: `stages`
//! register-bounded processing stages in a chain, each a module with a
//! **narrow interface** (one W-bit bus in, one out) and **dense internals**
//! (adders, mixers, comparators — several hundred nets per stage). On this
//! interconnect shape, module boundaries *are* the optimal cut, which is
//! the regime where hierarchy-driven partitioning shines; see
//! EXPERIMENTS.md's regime analysis.

use crate::arith::VerilogLib;
use std::fmt::Write as _;

/// Generator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineParams {
    /// Number of pipeline stages.
    pub stages: u32,
    /// Datapath width in bits.
    pub width: u32,
    /// Extra mixing rounds per stage (each ≈ 4·width gates).
    pub rounds: u32,
}

impl Default for PipelineParams {
    fn default() -> Self {
        PipelineParams {
            stages: 16,
            width: 16,
            rounds: 3,
        }
    }
}

impl PipelineParams {
    /// A small instance for tests.
    pub fn tiny() -> Self {
        PipelineParams {
            stages: 4,
            width: 4,
            rounds: 1,
        }
    }
}

/// Generate the pipeline as Verilog source; top module `pipeline` with
/// ports `(clk, rst, din, dout)`.
pub fn generate_pipeline_soc(p: &PipelineParams) -> String {
    assert!(p.stages >= 1 && p.width >= 2 && p.rounds >= 1);
    let w = p.width;
    let hi = w - 1;

    let mut lib = VerilogLib::new();
    let add = lib.ensure_adder(w);
    let cmp = lib.ensure_cmp_ge(w);
    let mux = lib.ensure_mux2(w);

    // One stage definition: registered input, `rounds` mixing rounds
    // (rotate-xor-add), a compare-select, registered output with async
    // reset.
    let mut st = String::new();
    writeln!(st, "module pipe_stage(clk, rst, din, dout);").unwrap();
    writeln!(st, "  input clk, rst;").unwrap();
    writeln!(st, "  input [{hi}:0] din;").unwrap();
    writeln!(st, "  output [{hi}:0] dout;").unwrap();
    writeln!(st, "  wire [{hi}:0] r0;").unwrap();
    for i in 0..w {
        writeln!(st, "  dffr fi{i} (r0[{i}], clk, rst, din[{i}]);").unwrap();
    }
    let mut cur = "r0".to_string();
    for round in 0..p.rounds {
        let rot = format!("rot{round}");
        let mixed = format!("mix{round}");
        let summed = format!("sum{round}");
        writeln!(st, "  wire [{hi}:0] {rot}, {mixed}, {summed};").unwrap();
        // Rotate by 1 (pure wiring via buf gates so it costs gates, like a
        // synthesized shifter would).
        for i in 0..w {
            writeln!(
                st,
                "  buf rb{round}_{i} ({rot}[{i}], {cur}[{}]);",
                (i + 1) % w
            )
            .unwrap();
        }
        for i in 0..w {
            writeln!(
                st,
                "  xor mx{round}_{i} ({mixed}[{i}], {cur}[{i}], {rot}[{}]);",
                (i + w - 1) % w
            )
            .unwrap();
        }
        writeln!(
            st,
            "  {add} ad{round} (.a({cur}), .b({mixed}), .sum({summed}));"
        )
        .unwrap();
        cur = summed;
    }
    // Compare-select against the registered input: keeps reconvergent
    // structure inside the stage.
    writeln!(st, "  wire ge;").unwrap();
    writeln!(st, "  {cmp} cc (.a({cur}), .b(r0), .ge(ge));").unwrap();
    writeln!(st, "  wire [{hi}:0] sel;").unwrap();
    writeln!(st, "  {mux} mm (.sel(ge), .a({cur}), .b(r0), .y(sel));").unwrap();
    for i in 0..w {
        writeln!(st, "  dffr fo{i} (dout[{i}], clk, rst, sel[{i}]);").unwrap();
    }
    writeln!(st, "endmodule").unwrap();
    lib.define("pipe_stage", st);

    // Top: chain of stages.
    let mut top = String::new();
    writeln!(top, "module pipeline(clk, rst, din, dout);").unwrap();
    writeln!(top, "  input clk, rst;").unwrap();
    writeln!(top, "  input [{hi}:0] din;").unwrap();
    writeln!(top, "  output [{hi}:0] dout;").unwrap();
    for s in 0..=p.stages {
        writeln!(top, "  wire [{hi}:0] bus{s};").unwrap();
    }
    writeln!(top, "  assign bus0 = din;").unwrap();
    for s in 0..p.stages {
        writeln!(
            top,
            "  pipe_stage st{s} (.clk(clk), .rst(rst), .din(bus{s}), .dout(bus{}));",
            s + 1
        )
        .unwrap();
    }
    writeln!(top, "  assign dout = bus{};", p.stages).unwrap();
    writeln!(top, "endmodule").unwrap();
    lib.define("pipeline", top);

    lib.source()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_verilog::{parse_and_elaborate, stats::stats};

    #[test]
    fn tiny_pipeline_elaborates() {
        let src = generate_pipeline_soc(&PipelineParams::tiny());
        let d = parse_and_elaborate(&src).unwrap();
        let nl = d.netlist();
        nl.validate().unwrap();
        let st = stats(nl);
        assert!(st.sequential_gates > 0);
        assert!(st.logic_depth.is_some());
        // 4 stages each with 3 arith children = 16 instances.
        assert_eq!(nl.instance_count(), 4 * 4);
    }

    #[test]
    fn interfaces_are_narrow_and_internals_dense() {
        let p = PipelineParams::default();
        let src = generate_pipeline_soc(&p);
        let nl = parse_and_elaborate(&src).unwrap().into_netlist();
        // Gates per stage vs interface width: internals must dominate by a
        // wide margin for the regime argument.
        let per_stage = nl.gate_count() as u32 / p.stages;
        assert!(
            per_stage > 10 * p.width,
            "stage has {per_stage} gates vs {} interface bits",
            p.width
        );
    }

    #[test]
    fn pipeline_simulates_with_activity() {
        use dvs_sim::seq::{NullObserver, SeqSim, SimConfig};
        use dvs_sim::stimulus::VectorStimulus;
        let src = generate_pipeline_soc(&PipelineParams::tiny());
        let nl = parse_and_elaborate(&src).unwrap().into_netlist();
        let mut sim = SeqSim::new(&nl, &SimConfig::default());
        let stim = VectorStimulus::from_netlist(&nl, 12, 5);
        sim.run(&stim, 40, &mut NullObserver);
        assert!(sim.stats().gate_evals > 500);
    }

    #[test]
    fn hierarchy_aligned_cut_is_cheap() {
        use dvs_core_free_cut::*;
        // Splitting the chain in half at a stage boundary cuts ~W nets;
        // this is checked without the partitioner to pin the workload
        // property itself.
        let p = PipelineParams::default();
        let src = generate_pipeline_soc(&p);
        let nl = parse_and_elaborate(&src).unwrap().into_netlist();
        let half = p.stages / 2;
        // Assign gates by owning stage index (stage s instance subtree).
        let blocks = stage_split(&nl, half);
        let cut = dvs_hypergraph::builder::cut_size_gates(&nl, &blocks);
        // Interface bus (W) + clk/rst fan-ins shared across the cut; allow
        // some slack for globals.
        assert!(
            cut <= (p.width + 4) as u64,
            "boundary cut {cut} exceeds interface width {}",
            p.width
        );
    }

    /// Helper namespace for the test above (keeps the test body readable).
    mod dvs_core_free_cut {
        use dvs_verilog::netlist::{InstId, Netlist};

        /// Block 0 = stages < `half`, block 1 = the rest. Loose top gates
        /// (the din/dout assign buffers) go with the end of the chain they
        /// touch.
        pub fn stage_split(nl: &Netlist, half: u32) -> Vec<u32> {
            let mut inst_block = vec![0u32; nl.instances.len()];
            for (ii, inst) in nl.instances.iter().enumerate() {
                if inst.parent == Some(InstId::ROOT) && inst.name.starts_with("st") {
                    let idx: u32 = inst.name[2..].parse().unwrap();
                    let b = if idx < half { 0 } else { 1 };
                    for sub in nl.subtree(InstId(ii as u32)) {
                        inst_block[sub.idx()] = b;
                    }
                }
            }
            nl.gates
                .iter()
                .map(|g| {
                    if g.owner == InstId::ROOT {
                        // dout assign buffers read the last bus; keep them
                        // with block 1. Everything else at top (din buffers,
                        // constants) stays in block 0.
                        let out_name = nl.net_name(g.output);
                        if out_name.contains("dout") {
                            1
                        } else {
                            0
                        }
                    } else {
                        inst_block[g.owner.idx()]
                    }
                })
                .collect()
        }
    }
}

//! Packed gate tables: what the event loops read in place of the `Netlist`.
//!
//! The elaborated [`Netlist`] is the front end's structure — a 56-byte
//! `Gate` with its inputs in a heap `Vec` each, hierarchy and names beside
//! it. An event loop needs four things per gate (kind, output net, input
//! nets, whether the output leaves the cluster) and one per net (who must
//! look when it changes). [`GateTables`] holds exactly that, built once per
//! simulator over the gates it *owns*: every gate for [`crate::seq::SeqSim`]
//! (local id = `GateId`), one cluster's gates for
//! [`crate::timewarp::proc::ClusterProcess`], which makes the gate side
//! partition-local. Net ids stay global, so values, messages and checkpoints
//! mean what they always did.
//!
//! Per net there is a list of reader entries `local_gate << 2 | role`:
//!
//! * **Ordering invariant.** The entries of a net are in ascending gate, then
//!   pin order — exactly the order `Fanout::readers` yields. The order gates
//!   become affected in is the order their output events are stamped in,
//!   and through the stamps it reaches the undo and processed logs and the
//!   checkpoint bytes, so any other order changes every pinned artifact.
//!   Hence the owned gates must ascend.
//! * **The data pin is not listed.** A flip-flop evaluates on a rising clock
//!   edge (and a `Dffr` on any change of its reset); a change of its data
//!   input alone never makes it evaluate, and the evaluation reads the data
//!   net's current value whenever it does happen. Listing the pin would only
//!   buy a visit to the gate to find that out.
//! * **Roles.** An entry says how its gate reacts, so a clock entry on a
//!   change that is not a rising edge touches no gate memory at all.
//!
//! [`Epoch`] is the other half: the per-epoch frontier both loops run over
//! the tables — collect the gates a net change affects, each once, then
//! evaluate them.

use crate::logic::{is_posedge, Logic};
use dvs_verilog::netlist::{GateId, GateKind, NetId, Netlist};

/// Reader roles, the low two bits of a reader entry.
const ROLE_BITS: u32 = 2;
const ROLE_MASK: u32 = (1 << ROLE_BITS) - 1;
/// A combinational or latch pin: any change affects the gate.
const ANY: u32 = 0;
/// Clock of a `Dff`: a rising edge affects (and clocks) the gate.
const DFF_CLK: u32 = 1;
/// Clock of a `Dffr`: as above, and the edge is recorded — a `Dffr` is also
/// affected by its reset, so being affected does not imply being clocked.
const DFFR_CLK: u32 = 2;
/// Reset of a `Dffr`: any change affects the gate.
const DFFR_RST: u32 = 3;

/// The role of input `pin` of a `kind` gate, `None` for a flop's data pin.
fn pin_role(kind: GateKind, pin: usize) -> Option<u32> {
    match (kind, pin) {
        (GateKind::Dff, 0) => Some(DFF_CLK),
        (GateKind::Dffr, 0) => Some(DFFR_CLK),
        (GateKind::Dffr, 1) => Some(DFFR_RST),
        (GateKind::Dff | GateKind::Dffr, _) => None,
        _ => Some(ANY),
    }
}

/// One owned gate. Its inputs are `inputs[in_off..next.in_off]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GateRec {
    /// Output net.
    pub out: u32,
    in_off: u32,
    pub kind: GateKind,
    /// The output net has readers in other clusters.
    pub exported: bool,
}

pub(crate) struct GateTables {
    /// Owned gates in netlist order, then a sentinel closing the last
    /// gate's input range.
    gates: Vec<GateRec>,
    /// Input nets of all owned gates, gate by gate.
    inputs: Vec<u32>,
    /// Per net (global id) the start of its reader entries; one past the
    /// last net closes the range.
    reader_off: Vec<u32>,
    readers: Vec<u32>,
}

impl GateTables {
    /// Tables over the `owned` gates of `nl`; `exports` are the nets driven
    /// by them that other clusters read (a cluster's `exports`).
    pub fn new(nl: &Netlist, owned: &[GateId], exports: &[(NetId, Vec<u32>)]) -> Self {
        assert!(
            owned.windows(2).all(|w| w[0] < w[1]),
            "owned gates must ascend: reader order reaches the checkpoints"
        );
        assert!(
            owned.len() < 1 << (32 - ROLE_BITS),
            "too many gates for a reader entry"
        );
        let mut gates = Vec::with_capacity(owned.len() + 1);
        let mut inputs: Vec<u32> = Vec::with_capacity(2 * owned.len());
        let mut reader_off = vec![0u32; nl.net_count() + 1];
        for &g in owned {
            let gate = &nl.gates[g.idx()];
            gates.push(GateRec {
                out: gate.output.0,
                in_off: inputs.len() as u32,
                kind: gate.kind,
                exported: false,
            });
            for (pin, &n) in gate.inputs.iter().enumerate() {
                inputs.push(n.0);
                if pin_role(gate.kind, pin).is_some() {
                    reader_off[n.idx() + 1] += 1;
                }
            }
        }
        let in_end = u32::try_from(inputs.len()).expect("input pins fit a u32 offset");
        gates.push(GateRec {
            out: u32::MAX,
            in_off: in_end,
            kind: GateKind::Const0,
            exported: false,
        });
        for (net, _) in exports {
            let driver = nl.nets[net.idx()]
                .driver
                .expect("an exported net is driven");
            let local = owned
                .binary_search(&driver)
                .expect("an exported net is driven by an owned gate");
            gates[local].exported = true;
        }

        // Counts to offsets, then fill in gate-then-pin order.
        for i in 1..reader_off.len() {
            reader_off[i] += reader_off[i - 1];
        }
        let mut cursor = reader_off.clone();
        let mut readers = vec![0u32; reader_off[nl.net_count()] as usize];
        for (local, pair) in gates.windows(2).enumerate() {
            let pins = &inputs[pair[0].in_off as usize..pair[1].in_off as usize];
            for (pin, &n) in pins.iter().enumerate() {
                if let Some(role) = pin_role(pair[0].kind, pin) {
                    let slot = &mut cursor[n as usize];
                    readers[*slot as usize] = (local as u32) << ROLE_BITS | role;
                    *slot += 1;
                }
            }
        }
        GateTables {
            gates,
            inputs,
            reader_off,
            readers,
        }
    }

    /// Number of owned gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len() - 1
    }

    #[inline]
    pub fn gate(&self, g: u32) -> GateRec {
        self.gates[g as usize]
    }

    /// Input nets of local gate `g`, in pin order.
    #[inline]
    pub fn inputs(&self, g: u32) -> &[u32] {
        let g = g as usize;
        &self.inputs[self.gates[g].in_off as usize..self.gates[g + 1].in_off as usize]
    }

    #[inline]
    fn readers(&self, net: u32) -> &[u32] {
        let net = net as usize;
        &self.readers[self.reader_off[net] as usize..self.reader_off[net + 1] as usize]
    }

    /// Value of combinational gate `g` over `values` (indexed by net).
    #[inline]
    pub fn eval_comb(&self, g: u32, values: &[Logic]) -> Logic {
        let pins = self.inputs(g);
        let it = pins.iter().map(|&n| values[n as usize]);
        match self.gates[g as usize].kind {
            GateKind::Buf => values[pins[0] as usize].input(),
            GateKind::Not => values[pins[0] as usize].not(),
            GateKind::Const0 => Logic::Zero,
            GateKind::Const1 => Logic::One,
            GateKind::And => it.fold(Logic::One, Logic::and),
            GateKind::Nand => it.fold(Logic::One, Logic::and).not(),
            GateKind::Or => it.fold(Logic::Zero, Logic::or),
            GateKind::Nor => it.fold(Logic::Zero, Logic::or).not(),
            GateKind::Xor => it.fold(Logic::Zero, Logic::xor),
            GateKind::Xnor => it.fold(Logic::Zero, Logic::xor).not(),
            GateKind::Dff | GateKind::Dffr | GateKind::Latch => {
                unreachable!("sequential gates are evaluated by `Epoch::eval`")
            }
        }
    }
}

/// One epoch's frontier over a [`GateTables`]: the gates the epoch's net
/// changes affect, each once and in reader order, and which `Dffr`s among
/// them saw a clock edge. The stamps make starting an epoch O(1).
pub(crate) struct Epoch {
    seen: Vec<u32>,
    /// Written for `Dffr` only: an affected `Dff` was clocked by construction.
    fire: Vec<u32>,
    stamp: u32,
    affected: Vec<u32>,
}

impl Epoch {
    pub fn new(gates: usize) -> Self {
        Epoch {
            seen: vec![0; gates],
            fire: vec![0; gates],
            stamp: 0,
            affected: Vec::with_capacity(64),
        }
    }

    /// Forget the previous epoch.
    #[inline]
    pub fn begin(&mut self) {
        self.stamp += 1;
        self.affected.clear();
    }

    /// Net `net` went `old` → `new` this epoch: add the gates that must look.
    #[inline]
    pub fn net_changed(&mut self, t: &GateTables, net: u32, old: Logic, new: Logic) {
        let rising = is_posedge(old, new);
        for &entry in t.readers(net) {
            let role = entry & ROLE_MASK;
            if (role == DFF_CLK || role == DFFR_CLK) && !rising {
                continue;
            }
            let g = (entry >> ROLE_BITS) as usize;
            if self.seen[g] != self.stamp {
                self.seen[g] = self.stamp;
                self.affected.push(g as u32);
            }
            if role == DFFR_CLK {
                self.fire[g] = self.stamp;
            }
        }
    }

    /// Local ids of the affected gates, in the order they became affected.
    #[inline]
    pub fn affected(&self) -> &[u32] {
        &self.affected
    }

    /// What affected gate `g` drives next, `None` where it holds its value.
    #[inline]
    pub fn eval(&self, t: &GateTables, g: u32, values: &[Logic]) -> Option<Logic> {
        let value = |pin: usize| values[t.inputs(g)[pin] as usize];
        match t.gates[g as usize].kind {
            // inputs `[clk, d]`
            GateKind::Dff => Some(value(1).input()),
            // inputs `[clk, rst, d]`; asynchronous active-high reset dominates
            GateKind::Dffr => {
                if value(1) == Logic::One {
                    Some(Logic::Zero)
                } else if self.fire[g as usize] == self.stamp {
                    Some(value(2).input())
                } else {
                    None // reset released without a clock edge
                }
            }
            // inputs `[en, d]`
            GateKind::Latch => (value(0) == Logic::One).then(|| value(1).input()),
            _ => Some(t.eval_comb(g, values)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterPlan;
    use dvs_verilog::{parse_and_elaborate, parse_and_elaborate_top};
    use dvs_workloads::pipeline_soc::{generate_pipeline_soc, PipelineParams};
    use dvs_workloads::random_hier::{generate_random_hier, RandomHierParams};
    use dvs_workloads::seqcirc::{generate_counter, generate_lfsr};
    use proptest::prelude::*;

    /// Every sequential kind, and nets that enter one gate twice.
    const QUIRKS: &str = r#"
        module top(clk, a, b, r, y0, y1, y2, y3, y4, y5);
          input clk, a, b, r; output y0, y1, y2, y3, y4, y5;
          wire g, x;
          and   ga (g, a, b);
          xor   gx (x, a, r);
          dff   f0 (y0, g, g);
          dffr  f1 (y1, g, g, x);
          dffr  f2 (y2, clk, x, x);
          latch l3 (y3, x, x);
          dffr  f4 (y4, clk, r, g);
          nand  g5 (y5, x, x, g);
        endmodule
    "#;

    fn elaborate(src: &str) -> Netlist {
        parse_and_elaborate(src).unwrap().into_netlist()
    }

    /// The reader entries `net` must have, derived from `Fanout` and the
    /// netlist alone: its readers that are owned, flop data pins removed,
    /// as `(local gate, role)`.
    fn model_readers(
        nl: &Netlist,
        fanout: &dvs_verilog::netlist::Fanout,
        local_of: &[Option<u32>],
        net: NetId,
    ) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        let mut last = None;
        for &g in fanout.readers(net) {
            // `Fanout` names a gate once per pin on the net; take its pins
            // on the first mention.
            if last == Some(g) {
                continue;
            }
            last = Some(g);
            let Some(local) = local_of[g.idx()] else {
                continue;
            };
            let gate = &nl.gates[g.idx()];
            for (pin, _) in gate.inputs.iter().enumerate().filter(|(_, &n)| n == net) {
                let role = match (gate.kind, pin) {
                    (GateKind::Dff, 0) => DFF_CLK,
                    (GateKind::Dff, 1) => continue,
                    (GateKind::Dffr, 0) => DFFR_CLK,
                    (GateKind::Dffr, 1) => DFFR_RST,
                    (GateKind::Dffr, 2) => continue,
                    _ => ANY,
                };
                out.push((local, role));
            }
        }
        out
    }

    /// Build the tables of the cluster owning exactly the gates `owns`
    /// accepts and hold them to the model.
    fn tables_match_fanout(nl: &Netlist, owns: impl Fn(usize) -> bool) {
        let gate_block: Vec<u32> = (0..nl.gate_count()).map(|g| !owns(g) as u32).collect();
        let plan = ClusterPlan::new(nl, &gate_block, 2);
        let cluster = &plan.clusters[0];
        let t = GateTables::new(nl, &cluster.gates, &cluster.exports);

        assert_eq!(t.len(), cluster.gates.len());
        assert_eq!(t.gates.len(), cluster.gates.len() + 1);
        assert_eq!(t.reader_off.len(), nl.net_count() + 1);
        let mut local_of = vec![None; nl.gate_count()];
        for (local, &g) in cluster.gates.iter().enumerate() {
            local_of[g.idx()] = Some(local as u32);
            let gate = &nl.gates[g.idx()];
            let rec = t.gate(local as u32);
            assert_eq!((rec.kind, rec.out), (gate.kind, gate.output.0), "{g}");
            let pins: Vec<u32> = gate.inputs.iter().map(|n| n.0).collect();
            assert_eq!(t.inputs(local as u32), pins, "inputs of {g}");
            let exported = cluster.exports.iter().any(|(n, _)| *n == gate.output);
            assert_eq!(rec.exported, exported, "exported bit of {g}");
        }
        let fanout = nl.build_fanout();
        let mut entries = 0;
        for ni in 0..nl.net_count() as u32 {
            let got: Vec<(u32, u32)> = t
                .readers(ni)
                .iter()
                .map(|e| (e >> ROLE_BITS, e & ROLE_MASK))
                .collect();
            assert_eq!(
                got,
                model_readers(nl, &fanout, &local_of, NetId(ni)),
                "readers of net {ni}"
            );
            entries += got.len();
        }
        assert_eq!(entries, t.readers.len());
    }

    /// All, none, one gate, alternating, and a `seed`-random subset.
    fn every_subset_matches(nl: &Netlist, seed: u64) {
        tables_match_fanout(nl, |_| true);
        tables_match_fanout(nl, |_| false);
        let one = seed as usize % nl.gate_count();
        tables_match_fanout(nl, |g| g == one);
        tables_match_fanout(nl, |g| g % 2 == 0);
        tables_match_fanout(nl, |g| {
            (seed ^ g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn tables_equal_the_fanout_model(
            shape in (0u32..3, 2u32..5, 0u32..60),
            seeds in (any::<u64>(), any::<u64>()),
        ) {
            let ((depth, children, dff_percent), (gen_seed, own_seed)) = (shape, seeds);
            // Unused definitions make the top ambiguous: name it.
            let hier = generate_random_hier(&RandomHierParams {
                depth,
                children_per_module: children,
                dff_percent,
                seed: gen_seed,
                ..RandomHierParams::default()
            });
            let nl = parse_and_elaborate_top(&hier, "rtop").unwrap().into_netlist();
            every_subset_matches(&nl, own_seed);
            let bits = 2 + (gen_seed % 7) as u32;
            every_subset_matches(&elaborate(&generate_counter(bits)), own_seed);
            every_subset_matches(&elaborate(&generate_lfsr(bits, &[bits, 1])), own_seed);
        }
    }

    /// The kinds and pin coincidences no generator above produces (`Dffr`,
    /// `Latch`, one net on two pins of a gate), and a real partitioner block.
    #[test]
    fn tables_equal_the_fanout_model_on_resets_latches_and_a_real_block() {
        for seed in 0..8 {
            every_subset_matches(&elaborate(QUIRKS), seed);
        }
        let nl = elaborate(&generate_pipeline_soc(&PipelineParams::tiny()));
        assert!(nl.gates.iter().any(|g| g.kind == GateKind::Dffr));
        every_subset_matches(&nl, 1);
        let part = dvs_core::partition_multiway(&nl, &dvs_core::MultiwayConfig::new(3, 10.0));
        for block in 0..3 {
            tables_match_fanout(&nl, |g| part.gate_blocks[g] == block);
        }
    }

    #[test]
    #[should_panic(expected = "owned gates must ascend")]
    fn descending_owned_gates_are_refused() {
        let nl = elaborate(QUIRKS);
        GateTables::new(&nl, &[GateId(2), GateId(1)], &[]);
    }
}

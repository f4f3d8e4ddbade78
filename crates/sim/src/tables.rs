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
//! Per net there is a list of reader entries `payload << 3 | role`; the
//! payload is a local gate, except in an arming entry:
//!
//! * **Ordering invariant.** The gate entries of a net are in ascending gate,
//!   then pin order — exactly the order `Fanout::readers` yields. The order
//!   gates become affected in is the order their output events are stamped
//!   in, and through the stamps it reaches the undo and processed logs and
//!   the checkpoint bytes, so any other order changes every pinned artifact.
//!   Hence the owned gates must ascend.
//! * **Roles.** An entry says how its gate reacts, so a `Dffr` clock entry on
//!   a change that is not a rising edge touches no gate memory at all.
//! * **Armed flip-flops.** A clocked `Dff` with `d.input() == q` schedules
//!   nothing, so skipping it leaves the order of the gates that do schedule
//!   untouched. [`Epoch`] has a `live` bit per reader slot, and a change of
//!   a net with `Dff` clock entries walks the set bits of its slots, not its
//!   slice. *Superset invariant:* the clock entry of every `Dff` with
//!   `d.input() != q` is live (every other role's bit is set for good).
//!   Arming keeps it: a `Dff` has an [`ARM`] entry on its data net and on its
//!   output net, and every change of a net's value — applied, or restored by
//!   a rollback — sets the bits they name, reading no gate and no value.
//!   Disarming is lazy: a rising clock checks its live `Dff`s against the
//!   epoch's final values and clears the bit of one that holds. `live` is
//!   derived from the values, never logged or checkpointed.
//!
//! [`Epoch`] is the other half: the per-epoch frontier both loops run over
//! the tables — collect the gates a net change affects, each once, then
//! evaluate them.

use crate::logic::{is_posedge, Logic};
use dvs_verilog::netlist::{GateId, GateKind, NetId, Netlist};
use std::ops::Range;

/// Reader roles, the low three bits of a reader entry.
const ROLE_BITS: u32 = 3;
const ROLE_MASK: u32 = (1 << ROLE_BITS) - 1;
/// A combinational or latch pin: any change affects the gate.
const ANY: u32 = 0;
/// Clock of a `Dff`: a rising edge clocks the gate, and affects it if live.
const DFF_CLK: u32 = 1;
/// Clock of a `Dffr`: a rising edge affects the gate, and the edge is
/// recorded — a `Dffr` is also affected by its reset, so being affected does
/// not imply being clocked.
const DFFR_CLK: u32 = 2;
/// Reset of a `Dffr`: any change affects the gate.
const DFFR_RST: u32 = 3;
/// Data pin or output net of a `Dff`: any change arms the flop. The payload
/// is the slot of the flop's clock entry.
const ARM: u32 = 4;
/// Top bit of a `reader_off` word: the net has `Dff` clock entries.
const CLOCK: u32 = 1 << 31;

/// The role of input `pin` of a `kind` gate, `None` for a `Dffr`'s data pin:
/// it evaluates on its own triggers only and reads the data net then.
fn pin_role(kind: GateKind, pin: usize) -> Option<u32> {
    match (kind, pin) {
        (GateKind::Dff, 0) => Some(DFF_CLK),
        (GateKind::Dff, _) => Some(ARM),
        (GateKind::Dffr, 0) => Some(DFFR_CLK),
        (GateKind::Dffr, 1) => Some(DFFR_RST),
        (GateKind::Dffr, _) => None,
        _ => Some(ANY),
    }
}

/// The index of flagged net `net` in `clocks`, which ascends by net.
fn clock_of(clocks: &[(u32, u32)], net: u32) -> usize {
    let at = clocks.binary_search_by_key(&net, |c| c.0);
    at.expect("a net with `Dff` clock entries is in `clocks`")
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
    /// Per net (global id) the start of its reader entries, with [`CLOCK`]
    /// set on a net of `clocks`; one past the last net closes the range.
    reader_off: Vec<u32>,
    readers: Vec<u32>,
    /// The nets with `Dff` clock entries, ascending, and how many each has.
    clocks: Vec<(u32, u32)>,
}

impl GateTables {
    /// Tables over the `owned` gates of `nl`; `exports` are the nets driven
    /// by them that other clusters read (a cluster's `exports`).
    pub fn new(nl: &Netlist, owned: &[GateId], exports: &[(NetId, Vec<u32>)]) -> Self {
        assert!(
            owned.windows(2).all(|w| w[0] < w[1]),
            "owned gates must ascend: reader order reaches the checkpoints"
        );
        let mut gates = Vec::with_capacity(owned.len() + 1);
        let mut inputs: Vec<u32> = Vec::with_capacity(2 * owned.len());
        // Word `n + 1` counts the entries of net `n`, word `n` flags it.
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
            if gate.kind == GateKind::Dff {
                reader_off[gate.output.idx() + 1] += 1;
                reader_off[gate.inputs[0].idx()] |= CLOCK;
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

        // Counts to offsets, one word late: word `n + 1` is the fill cursor of
        // net `n` and ends as the start of net `n + 1`. Then fill in
        // gate-then-pin order.
        let (mut end, mut clocks) = (0u32, Vec::new());
        for (net, off) in reader_off.iter_mut().enumerate() {
            let count = *off & !CLOCK;
            *off = end | (*off & CLOCK);
            end += count;
            if *off & CLOCK != 0 {
                clocks.push((net as u32, 0));
            }
        }
        assert!(
            end < 1 << (32 - ROLE_BITS) && owned.len() < 1 << (32 - ROLE_BITS),
            "too many gates or pins for a reader entry"
        );
        let mut readers = vec![0u32; end as usize];
        let mut put = |net: u32, payload: u32, role: u32| {
            let slot = reader_off[net as usize + 1] & !CLOCK;
            readers[slot as usize] = payload << ROLE_BITS | role;
            reader_off[net as usize + 1] += 1;
            slot
        };
        for (local, pair) in gates.windows(2).enumerate() {
            let pins = &inputs[pair[0].in_off as usize..pair[1].in_off as usize];
            // Read by a `Dff` only: its clock is pin 0, so its arming entries
            // — the data pin and the output — are written knowing their slot.
            let mut clock_slot = 0;
            for (pin, &n) in pins.iter().enumerate() {
                match pin_role(pair[0].kind, pin) {
                    Some(ARM) => _ = put(n, clock_slot, ARM),
                    Some(role) => clock_slot = put(n, local as u32, role),
                    None => {}
                }
            }
            if pair[0].kind == GateKind::Dff {
                put(pair[0].out, clock_slot, ARM);
                let c = clock_of(&clocks, pins[0]);
                clocks[c].1 += 1;
            }
        }
        GateTables {
            gates,
            inputs,
            reader_off,
            readers,
            clocks,
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

    /// The reader slots of `net`, and whether `Dff` clock entries are there.
    #[inline]
    fn slots(&self, net: u32) -> (Range<usize>, bool) {
        let off = &self.reader_off[net as usize..net as usize + 2];
        let slot = |off: u32| (off & !CLOCK) as usize;
        (slot(off[0])..slot(off[1]), off[0] & CLOCK != 0)
    }

    /// `(slot, gate)` of every `Dff` clock entry.
    fn dff_clocks(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        let slots = self.clocks.iter().flat_map(|c| self.slots(c.0).0);
        slots
            .filter(|&s| self.readers[s] & ROLE_MASK == DFF_CLK)
            .map(|s| (s, self.readers[s] >> ROLE_BITS))
    }

    /// `Dff` `g`, clocked now, would schedule nothing.
    #[inline]
    fn holds(&self, g: u32, values: &[Logic]) -> bool {
        let q = values[self.gates[g as usize].out as usize];
        values[self.inputs(g)[1] as usize].input() == q
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
    /// Per `GateTables::clocks` entry: the epoch the net last rose in.
    rose: Vec<u32>,
    stamp: u32,
    affected: Vec<u32>,
    /// One bit per reader slot, clear only for the clock entry of a `Dff`
    /// known to hold (the module's superset invariant).
    live: Vec<u64>,
    /// The epoch's changes from the first of a clock net on, `(net, rising)`:
    /// armed by `applied`, collected by `finish`.
    deferred: Vec<(u32, bool)>,
    /// Gates looked at so far: the affected ones and the `Dff`s disarmed.
    pub visited: u64,
}

impl Epoch {
    /// A frontier over `t`, `live` derived exactly from `values`.
    pub fn new(t: &GateTables, values: &[Logic]) -> Self {
        let mut live = vec![!0u64; t.readers.len().div_ceil(64)];
        for (slot, _) in t.dff_clocks().filter(|&(_, g)| t.holds(g, values)) {
            live[slot / 64] &= !(1 << (slot % 64));
        }
        Epoch {
            seen: vec![0; t.len()],
            fire: vec![0; t.len()],
            rose: vec![0; t.clocks.len()],
            stamp: 0,
            affected: Vec::with_capacity(64),
            live,
            deferred: Vec::new(),
            visited: 0,
        }
    }

    /// Forget the previous epoch.
    #[inline]
    pub fn begin(&mut self) {
        if self.stamp == u32::MAX {
            // The stamp wraps: no stale one may read as a coming epoch's.
            for stamps in [&mut self.seen, &mut self.fire, &mut self.rose] {
                stamps.fill(0);
            }
            self.stamp = 0;
        }
        self.stamp += 1;
        self.affected.clear();
    }

    /// Net `net` went `old` → `new` this epoch: arm the `Dff`s it feeds and
    /// add the gates that must look. From the epoch's first clock-net change
    /// on the adding waits for `finish`: a clock entry is checked against the
    /// epoch's final values, and `affected` is in change order.
    #[inline]
    pub fn applied(&mut self, t: &GateTables, net: u32, old: Logic, new: Logic) {
        let rising = is_posedge(old, new);
        if t.slots(net).1 || !self.deferred.is_empty() {
            self.arm(t, net);
            self.deferred.push((net, rising));
        } else {
            self.each_live(t, net, |epoch, _, entry| epoch.touch(entry, rising));
        }
    }

    /// The value of `net` changed, forward or back: the `Dff`s it is the data
    /// or the output of may no longer hold.
    pub fn arm(&mut self, t: &GateTables, net: u32) {
        let (slots, clock) = t.slots(net);
        // The usual clock has `Dff` clock entries only: nothing to arm.
        if clock && t.clocks[clock_of(&t.clocks, net)].1 as usize == slots.len() {
            return;
        }
        self.each_live(t, net, |epoch, _, entry| {
            if entry & ROLE_MASK == ARM {
                epoch.touch(entry, false);
            }
        });
    }

    /// Call `f` with the slot and the entry of every live reader of `net`:
    /// the whole slice, unless it has `Dff` clock entries.
    #[inline]
    fn each_live(&mut self, t: &GateTables, net: u32, mut f: impl FnMut(&mut Self, usize, u32)) {
        let (slots, clock) = t.slots(net);
        if !clock {
            for slot in slots {
                f(self, slot, t.readers[slot]);
            }
            return;
        }
        let mut at = slots.start;
        while at < slots.end {
            let bits = self.live[at / 64] >> (at % 64);
            if bits == 0 {
                at = (at / 64 + 1) * 64;
                continue;
            }
            at += bits.trailing_zeros() as usize + 1;
            if at <= slots.end {
                f(self, at - 1, t.readers[at - 1]);
            }
        }
    }

    /// React to a changed net's entry of any role but `DFF_CLK`.
    #[inline]
    fn touch(&mut self, entry: u32, rising: bool) {
        let (at, role) = ((entry >> ROLE_BITS) as usize, entry & ROLE_MASK);
        debug_assert_ne!(role, DFF_CLK, "only `finish` knows whether it holds");
        if role == ARM {
            self.live[at / 64] |= 1 << (at % 64);
        } else if role != DFFR_CLK || rising {
            if self.seen[at] != self.stamp {
                self.seen[at] = self.stamp;
                self.affected.push(at as u32);
            }
            if role == DFFR_CLK {
                self.fire[at] = self.stamp;
            }
        }
    }

    /// Every change of the epoch is applied and armed: collect the deferred
    /// ones over the final `values`. A clock net's first rise triggers each
    /// of its `Dff`s — `clocked` hears of it — and affects the live ones that
    /// do not hold; those that do are disarmed. Returns the gates triggered:
    /// the affected ones and the `Dff`s that were clocked and left out.
    pub fn finish(
        &mut self,
        t: &GateTables,
        values: &[Logic],
        mut clocked: impl FnMut(u32),
    ) -> u64 {
        let mut held = 0;
        for i in 0..self.deferred.len() {
            let (net, rising) = self.deferred[i];
            let (slots, clock) = t.slots(net);
            let mut edge = false;
            if clock {
                let c = clock_of(&t.clocks, net);
                edge = rising && std::mem::replace(&mut self.rose[c], self.stamp) != self.stamp;
                if edge {
                    held += t.clocks[c].1 as u64;
                    clocked(net);
                } else if t.clocks[c].1 as usize == slots.len() {
                    continue; // `Dff` clock entries only, and no edge for them
                }
            }
            self.each_live(t, net, |epoch, slot, entry| match entry & ROLE_MASK {
                ARM => {}
                DFF_CLK if !edge => {}
                DFF_CLK if t.holds(entry >> ROLE_BITS, values) => {
                    epoch.live[slot / 64] &= !(1 << (slot % 64));
                    epoch.visited += 1;
                }
                DFF_CLK => {
                    epoch.affected.push(entry >> ROLE_BITS);
                    held -= 1;
                }
                _ => epoch.touch(entry, rising),
            });
        }
        self.deferred.clear();
        self.visited += self.affected.len() as u64;
        debug_assert!(self.covers(t, values), "a `Dff` due to change is not live");
        self.affected.len() as u64 + held
    }

    /// The superset invariant holds over `values`.
    pub fn covers(&self, t: &GateTables, values: &[Logic]) -> bool {
        let live = |slot: usize| self.live[slot / 64] >> (slot % 64) & 1 == 1;
        t.dff_clocks()
            .all(|(slot, g)| live(slot) || t.holds(g, values))
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

    /// The gate entries `net` must have, derived from `Fanout` and the
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
        // Gate entries: the ordering invariant. Arming entries are set aside
        // as `(net, clock slot)`, and the `Dff` clock entries as `slot_of`.
        let (mut entries, mut arming, mut clocks) = (0, Vec::new(), Vec::new());
        let mut slot_of = vec![None; cluster.gates.len()];
        for ni in 0..nl.net_count() as u32 {
            let (slots, flagged) = t.slots(ni);
            let mut got = Vec::new();
            for slot in slots.clone() {
                let (payload, role) = (t.readers[slot] >> ROLE_BITS, t.readers[slot] & ROLE_MASK);
                match role {
                    ARM => arming.push((ni, payload)),
                    DFF_CLK => {
                        assert_eq!(slot_of[payload as usize].replace(slot as u32), None);
                        got.push((payload, role));
                    }
                    _ => got.push((payload, role)),
                }
            }
            let model = model_readers(nl, &fanout, &local_of, NetId(ni));
            assert_eq!(got, model, "readers of net {ni}");
            // The flag and the count are the `Dff`s `Fanout` puts on the net.
            let dffs = model.iter().filter(|e| e.1 == DFF_CLK).count() as u32;
            assert_eq!(flagged, dffs > 0, "flag of net {ni}");
            if dffs > 0 {
                clocks.push((ni, dffs));
            }
            entries += slots.len();
        }
        assert_eq!(entries, t.readers.len());
        assert_eq!(t.clocks, clocks);
        // Arming entries: one on the data net and one on the output net of
        // every `Dff`, naming the slot of its own clock entry, and no other.
        let mut want = Vec::new();
        for (local, &g) in cluster.gates.iter().enumerate() {
            let gate = &nl.gates[g.idx()];
            assert_eq!(slot_of[local].is_some(), gate.kind == GateKind::Dff);
            if let Some(slot) = slot_of[local] {
                want.extend([(gate.inputs[1].0, slot), (gate.output.0, slot)]);
            }
        }
        arming.sort_unstable();
        want.sort_unstable();
        assert_eq!(arming, want, "arming entries");
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

    /// Three epochs across the wrap of the `u32` stamp: each collects gates
    /// it has not seen, records a `Dffr` edge, and counts the `Dff` on a net
    /// that rises twice in it once. After a wrap to 0 every stale stamp —
    /// the arrays start at 0 — would read as "already seen".
    #[test]
    fn the_stamp_wraps_without_losing_a_gate_or_an_edge() {
        let nl = elaborate(QUIRKS);
        let all: Vec<GateId> = (0..nl.gate_count() as u32).map(GateId).collect();
        let t = GateTables::new(&nl, &all, &[]);
        let net = |name: &str| nl.nets.iter().position(|n| n.name == name).unwrap() as u32;
        let driver = |name: &str| nl.nets[net(name) as usize].driver.unwrap().0;
        let (f1, f2, f4, g5) = (
            driver("top.y1"),
            driver("top.y2"),
            driver("top.y4"),
            driver("top.y5"),
        );
        let values = vec![Logic::Zero; nl.net_count()];
        let mut front = Epoch::new(&t, &values);
        front.stamp = u32::MAX - 1;
        for stamp in [u32::MAX, 1, 2] {
            front.begin();
            assert_eq!(front.stamp, stamp);
            // `clk` clocks two `Dffr`s; `g` clocks the `Dff` `f0`, which
            // holds (`d == q`), and `f1`, resets `f1` and feeds `g5`.
            front.applied(&t, net("top.clk"), Logic::Zero, Logic::One);
            front.applied(&t, net("top.g"), Logic::Zero, Logic::One);
            front.applied(&t, net("top.g"), Logic::One, Logic::Zero);
            front.applied(&t, net("top.g"), Logic::Zero, Logic::One);
            let mut clocked = Vec::new();
            let triggered = front.finish(&t, &values, |n| clocked.push(n));
            assert_eq!(front.affected(), [f2, f4, f1, g5]);
            assert_eq!((triggered, clocked), (5, vec![net("top.g")]));
            // Reset low: a `Dffr` drives its data only if the edge was seen.
            assert_eq!(front.eval(&t, f4, &values), Some(Logic::Zero));
        }
    }

    #[test]
    #[should_panic(expected = "owned gates must ascend")]
    fn descending_owned_gates_are_refused() {
        let nl = elaborate(QUIRKS);
        GateTables::new(&nl, &[GateId(2), GateId(1)], &[]);
    }
}

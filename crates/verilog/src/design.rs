//! Elaboration: AST → flat, bit-blasted netlist with hierarchy metadata.
//!
//! Elaboration walks the instance tree starting from the top module,
//! bit-blasting vector signals, aliasing child port bits onto parent nets,
//! expanding primitive statements into [`crate::netlist::Gate`]s and
//! `assign`s into `buf` gates. Strict checks: unknown modules, recursive
//! instantiation, width mismatches, undeclared names, multiply-driven nets
//! and scalar-gate terminals wider than one bit are all hard errors.

use crate::ast::*;
use crate::error::{Error, Result};
use crate::netlist::{Gate, GateId, GateKind, InstId, Instance, Net, NetId, Netlist};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Elaboration options.
#[derive(Debug, Clone, Default)]
pub struct ElabOptions {
    /// Explicit top module name. When `None`, a module named `top` is used if
    /// present; otherwise the unique uninstantiated module.
    pub top: Option<String>,
}

/// An elaborated design: the flat netlist plus the name of the top module.
#[derive(Debug, Clone)]
pub struct Design {
    netlist: Netlist,
    top: String,
}

impl Design {
    /// Name of the top module.
    pub fn top(&self) -> &str {
        &self.top
    }

    /// The flat gate-level netlist: every gate fully expanded, the instance
    /// tree carried alongside as metadata.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Consume the design, yielding the netlist.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }
}

/// Resolved signal information inside one module definition.
#[derive(Debug, Clone, Copy)]
struct SigInfo {
    range: Option<Range>,
    direction: Option<Direction>,
    kind: NetKind,
}

impl SigInfo {
    fn width(&self) -> u32 {
        self.range.map_or(1, |r| r.width())
    }
}

/// A signal binding inside one elaborated instance: its net bits
/// (LSB-first) and its declared range (for validating bit/part selects).
#[derive(Debug, Clone)]
struct Binding {
    bits: Vec<NetId>,
    range: Option<Range>,
}

/// One instance's bindings, keyed by the names in its module's AST.
type NetMap<'a> = HashMap<&'a str, Binding>;

/// Per-module symbol table built once from the AST.
struct ModuleInfo<'a> {
    decl: &'a ModuleDecl,
    /// Every declared signal, sorted by name: the order in which each
    /// instance creates its internal nets, so net ids never depend on hash
    /// order.
    signals: Vec<(&'a str, SigInfo)>,
}

impl<'a> ModuleInfo<'a> {
    fn build(decl: &'a ModuleDecl) -> Result<Self> {
        let mut signals: HashMap<&'a str, SigInfo> = HashMap::new();
        for item in &decl.items {
            match item {
                Item::PortDecl {
                    direction,
                    range,
                    names,
                    ..
                } => {
                    for name in names {
                        match signals.entry(name.as_str()) {
                            Entry::Vacant(v) => {
                                v.insert(SigInfo {
                                    range: *range,
                                    direction: Some(*direction),
                                    kind: NetKind::Wire,
                                });
                            }
                            Entry::Occupied(mut o) => {
                                let s = o.get_mut();
                                if s.direction.is_some() {
                                    return Err(Error::elab(format!(
                                        "module `{}`: port `{name}` declared twice",
                                        decl.name
                                    )));
                                }
                                if s.range != *range {
                                    return Err(Error::elab(format!(
                                        "module `{}`: `{name}` redeclared with a different range",
                                        decl.name
                                    )));
                                }
                                s.direction = Some(*direction);
                            }
                        }
                    }
                }
                Item::NetDecl {
                    kind, range, names, ..
                } => {
                    for name in names {
                        match signals.entry(name.as_str()) {
                            Entry::Vacant(v) => {
                                v.insert(SigInfo {
                                    range: *range,
                                    direction: None,
                                    kind: *kind,
                                });
                            }
                            Entry::Occupied(mut o) => {
                                // `input a; wire a;` is legal; ranges must agree.
                                let s = o.get_mut();
                                if s.range != *range {
                                    return Err(Error::elab(format!(
                                        "module `{}`: `{name}` redeclared with a different range",
                                        decl.name
                                    )));
                                }
                                s.kind = *kind;
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // Ports listed in the header must be declared in the body.
        for p in &decl.ports {
            match signals.get(p.as_str()) {
                Some(s) if s.direction.is_some() => {}
                _ => {
                    return Err(Error::elab(format!(
                        "module `{}`: header port `{p}` has no input/output declaration",
                        decl.name
                    )))
                }
            }
        }
        let mut signals: Vec<_> = signals.into_iter().collect();
        signals.sort_unstable_by_key(|&(name, _)| name);
        Ok(ModuleInfo { decl, signals })
    }

    fn port_info(&self, name: &str) -> SigInfo {
        let i = self.signals.binary_search_by_key(&name, |&(n, _)| n);
        self.signals[i.expect("`build` checked that header ports are declared")].1
    }
}

/// The elaboration state. The module table is borrowed, so a module body is
/// walked in place however many times it is instantiated.
struct Elaborator<'a, 'm> {
    modules: &'m HashMap<&'a str, ModuleInfo<'a>>,
    netlist: Netlist,
    /// Modules on the current instantiation path (recursion detection).
    stack: HashSet<&'a str>,
}

/// Elaborate a parsed source unit into a [`Design`].
pub fn elaborate(unit: &SourceUnit, opts: &ElabOptions) -> Result<Design> {
    let mut modules = HashMap::new();
    for m in &unit.modules {
        if modules
            .insert(m.name.as_str(), ModuleInfo::build(m)?)
            .is_some()
        {
            return Err(Error::elab(format!("module `{}` defined twice", m.name)));
        }
    }
    let top = pick_top(unit, opts, &modules)?;

    let mut elab = Elaborator {
        modules: &modules,
        netlist: Netlist::default(),
        stack: HashSet::new(),
    };

    // Root instance node.
    elab.netlist.instances.push(Instance {
        name: top.to_string(),
        module: top.to_string(),
        parent: None,
        children: Vec::new(),
        depth: 0,
        own_gates: 0,
        subtree_gates: 0,
    });

    // Top-level ports become primary inputs/outputs.
    let top_info = &modules[top];
    let mut net_map = NetMap::new();
    for p in &top_info.decl.ports {
        let info = top_info.port_info(p);
        let bits = elab.fresh_nets(top, p, info.range);
        match info.direction {
            Some(Direction::Input) => elab.netlist.primary_inputs.extend(bits.iter().copied()),
            Some(Direction::Output) => elab.netlist.primary_outputs.extend(bits.iter().copied()),
            Some(Direction::Inout) => {
                return Err(Error::elab(format!(
                    "top module `{top}`: inout primary ports are not supported \
                     by the gate-level subset (port `{p}`)"
                )))
            }
            None => unreachable!("ModuleInfo::build validated header ports"),
        }
        net_map.insert(
            p,
            Binding {
                bits,
                range: info.range,
            },
        );
    }

    elab.elaborate_module(top_info, InstId::ROOT, top, net_map)?;
    elab.netlist.recount_gates();
    debug_assert_eq!(elab.netlist.validate(), Ok(()));
    Ok(Design {
        netlist: elab.netlist,
        top: top.to_string(),
    })
}

fn pick_top<'a>(
    unit: &'a SourceUnit,
    opts: &ElabOptions,
    modules: &HashMap<&'a str, ModuleInfo<'a>>,
) -> Result<&'a str> {
    if let Some(name) = &opts.top {
        return unit
            .modules
            .iter()
            .find(|m| &m.name == name)
            .map(|m| m.name.as_str())
            .ok_or_else(|| Error::elab(format!("top module `{name}` not found")));
    }
    if modules.contains_key("top") {
        return Ok("top");
    }
    let mut instantiated: HashSet<&str> = HashSet::new();
    for m in &unit.modules {
        for item in &m.items {
            if let Item::ModuleInst { module, .. } = item {
                instantiated.insert(module.as_str());
            }
        }
    }
    let roots: Vec<&str> = unit
        .modules
        .iter()
        .map(|m| m.name.as_str())
        .filter(|n| !instantiated.contains(n))
        .collect();
    match roots.as_slice() {
        [one] => Ok(one),
        [] => Err(Error::elab(
            "no top module: every module is instantiated (recursive design?)",
        )),
        many => Err(Error::elab(format!(
            "ambiguous top module, candidates: {}; pass an explicit top",
            many.join(", ")
        ))),
    }
}

/// `path.name`, or `path.name[bit]`, in one exactly sized allocation.
fn net_name(path: &str, name: &str, bit: Option<u32>) -> String {
    let digits = bit.map_or(0, |b| b.checked_ilog10().unwrap_or(0) as usize + 3);
    let mut s = String::with_capacity(path.len() + 1 + name.len() + digits);
    s.push_str(path);
    s.push('.');
    s.push_str(name);
    if let Some(b) = bit {
        use std::fmt::Write;
        write!(s, "[{b}]").expect("writing to a String cannot fail");
    }
    s
}

impl<'a> Elaborator<'a, '_> {
    /// Create fresh nets for signal `name` with optional `range`, named under
    /// `path`. Returns the bits LSB-first.
    fn fresh_nets(&mut self, path: &str, name: &str, range: Option<Range>) -> Vec<NetId> {
        match range {
            None => {
                let id = NetId(self.netlist.nets.len() as u32);
                self.netlist.nets.push(Net {
                    name: net_name(path, name, None),
                    driver: None,
                });
                vec![id]
            }
            Some(r) => r
                .bits_lsb_first()
                .map(|bit| {
                    let id = NetId(self.netlist.nets.len() as u32);
                    self.netlist.nets.push(Net {
                        name: net_name(path, name, Some(bit)),
                        driver: None,
                    });
                    id
                })
                .collect(),
        }
    }

    fn const_net(&mut self, value: bool) -> NetId {
        let slot = if value {
            self.netlist.const1_net
        } else {
            self.netlist.const0_net
        };
        if let Some(n) = slot {
            return n;
        }
        let id = NetId(self.netlist.nets.len() as u32);
        self.netlist.nets.push(Net {
            name: format!("$const{}", value as u8),
            driver: None,
        });
        let kind = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        let gid = GateId(self.netlist.gates.len() as u32);
        self.netlist.gates.push(Gate {
            kind,
            output: id,
            inputs: Vec::new(),
            owner: InstId::ROOT,
            delay: None,
        });
        self.netlist.nets[id.idx()].driver = Some(gid);
        if value {
            self.netlist.const1_net = Some(id);
        } else {
            self.netlist.const0_net = Some(id);
        }
        id
    }

    /// Elaborate the body of `info`'s module as instance `inst` with signal
    /// bindings for its ports already present in `net_map`.
    fn elaborate_module(
        &mut self,
        info: &ModuleInfo<'a>,
        inst: InstId,
        path: &str,
        mut net_map: NetMap<'a>,
    ) -> Result<()> {
        if self.netlist.instances[inst.idx()].depth > 512 {
            return Err(Error::elab(format!(
                "instantiation depth exceeds 512 at `{path}` — recursive design?"
            )));
        }
        let decl = info.decl;
        if !self.stack.insert(&decl.name) {
            return Err(Error::elab(format!(
                "recursive instantiation of module `{}`",
                decl.name
            )));
        }

        // Materialize internal (non-port) signals in name order.
        for &(name, sig) in &info.signals {
            if net_map.contains_key(name) {
                continue; // port, already bound by the parent
            }
            let bits = match sig.kind {
                NetKind::Supply0 => {
                    let c = self.const_net(false);
                    vec![c; sig.width() as usize]
                }
                NetKind::Supply1 => {
                    let c = self.const_net(true);
                    vec![c; sig.width() as usize]
                }
                NetKind::Wire | NetKind::Reg => self.fresh_nets(path, name, sig.range),
            };
            net_map.insert(
                name,
                Binding {
                    bits,
                    range: sig.range,
                },
            );
        }

        for item in &decl.items {
            match item {
                Item::PortDecl { .. } | Item::NetDecl { .. } => {}
                Item::GateInst {
                    prim,
                    delay,
                    instances,
                    ..
                } => {
                    for gi in instances {
                        self.elab_gate(*prim, *delay, gi, inst, path, &net_map)?;
                    }
                }
                Item::Assign { lhs, rhs, .. } => {
                    self.elab_assign(lhs, rhs, inst, path, &net_map)?;
                }
                Item::ModuleInst {
                    module, instances, ..
                } => {
                    for mi in instances {
                        self.elab_module_inst(module, mi, inst, path, &net_map)?;
                    }
                }
            }
        }

        self.stack.remove(decl.name.as_str());
        Ok(())
    }

    /// Resolve an expression to its net bits, LSB-first. Bit and part
    /// selects are validated against the signal's *declared* range, so
    /// `wire [7:4] a;` accepts `a[5]` and rejects `a[0]`.
    fn resolve_expr(&mut self, e: &Expr, path: &str, net_map: &NetMap) -> Result<Vec<NetId>> {
        match e {
            Expr::Ident(name) => net_map
                .get(name.as_str())
                .map(|b| b.bits.clone())
                .ok_or_else(|| Error::elab(format!("`{path}`: undeclared signal `{name}`"))),
            Expr::BitSelect(name, idx) => {
                let b = self.lookup(name, path, net_map)?;
                let off = b.range.and_then(|r| r.offset_of(*idx)).ok_or_else(|| {
                    Error::elab(format!("`{path}`: bit select `{name}[{idx}]` out of range"))
                })?;
                Ok(vec![b.bits[off as usize]])
            }
            Expr::PartSelect(name, sel) => {
                let b = self.lookup(name, path, net_map)?;
                let r = b.range.ok_or_else(|| {
                    Error::elab(format!("`{path}`: part select on scalar `{name}`"))
                })?;
                let mut out = Vec::with_capacity(sel.width() as usize);
                for bit in sel.bits_lsb_first() {
                    let off = r.offset_of(bit).ok_or_else(|| {
                        Error::elab(format!(
                            "`{path}`: part select `{name}[{}:{}]` out of range",
                            sel.msb, sel.lsb
                        ))
                    })?;
                    out.push(b.bits[off as usize]);
                }
                Ok(out)
            }
            Expr::Literal { width, bits } => {
                let mut out = Vec::with_capacity(*width as usize);
                for i in 0..*width {
                    let v = (bits >> i) & 1 == 1;
                    out.push(self.const_net(v));
                }
                Ok(out)
            }
            Expr::Concat(parts) => {
                // Verilog concatenation is MSB-first; build LSB-first output
                // by walking the parts in reverse.
                let mut out = Vec::new();
                for part in parts.iter().rev() {
                    out.extend(self.resolve_expr(part, path, net_map)?);
                }
                Ok(out)
            }
        }
    }

    fn lookup<'n>(&self, name: &str, path: &str, net_map: &'n NetMap) -> Result<&'n Binding> {
        net_map
            .get(name)
            .ok_or_else(|| Error::elab(format!("`{path}`: undeclared signal `{name}`")))
    }

    fn drive(&mut self, net: NetId, gate: GateId, path: &str) -> Result<()> {
        let slot = &mut self.netlist.nets[net.idx()].driver;
        if slot.is_some() {
            return Err(Error::elab(format!(
                "`{path}`: net `{}` is multiply driven",
                self.netlist.nets[net.idx()].name
            )));
        }
        *slot = Some(gate);
        Ok(())
    }

    fn add_gate(
        &mut self,
        kind: GateKind,
        output: NetId,
        inputs: Vec<NetId>,
        owner: InstId,
        delay: Option<u64>,
        path: &str,
    ) -> Result<GateId> {
        let gid = GateId(self.netlist.gates.len() as u32);
        self.drive(output, gid, path)?;
        self.netlist.gates.push(Gate {
            kind,
            output,
            inputs,
            owner,
            delay,
        });
        Ok(gid)
    }

    fn scalar(&mut self, e: &Expr, path: &str, net_map: &NetMap, what: &str) -> Result<NetId> {
        // A 1-bit name or an in-range bit select, nearly every terminal of a
        // synthesized netlist, resolves in place; everything else, every
        // error included, goes through `resolve_expr`.
        let in_place = match e {
            Expr::Ident(name) => net_map.get(name.as_str()).and_then(|b| match b.bits[..] {
                [bit] => Some(bit),
                _ => None,
            }),
            Expr::BitSelect(name, idx) => net_map
                .get(name.as_str())
                .and_then(|b| Some(b.bits[b.range?.offset_of(*idx)? as usize])),
            _ => None,
        };
        if let Some(bit) = in_place {
            return Ok(bit);
        }
        let bits = self.resolve_expr(e, path, net_map)?;
        if bits.len() != 1 {
            return Err(Error::elab(format!(
                "`{path}`: {what} `{}` must be 1 bit wide, got {}",
                e.display(),
                bits.len()
            )));
        }
        Ok(bits[0])
    }

    fn elab_gate(
        &mut self,
        prim: GatePrim,
        delay: Option<u64>,
        gi: &GateInstance,
        owner: InstId,
        path: &str,
        net_map: &NetMap,
    ) -> Result<()> {
        let n = gi.terminals.len();
        match prim {
            GatePrim::And
            | GatePrim::Or
            | GatePrim::Nand
            | GatePrim::Nor
            | GatePrim::Xor
            | GatePrim::Xnor => {
                if n < 3 {
                    return Err(Error::elab(format!(
                        "`{path}`: `{}` gate needs an output and at least two inputs",
                        prim.name()
                    )));
                }
                let out = self.scalar(&gi.terminals[0], path, net_map, "gate output")?;
                let mut inputs = Vec::with_capacity(n - 1);
                for t in &gi.terminals[1..] {
                    inputs.push(self.scalar(t, path, net_map, "gate input")?);
                }
                let kind = match prim {
                    GatePrim::And => GateKind::And,
                    GatePrim::Or => GateKind::Or,
                    GatePrim::Nand => GateKind::Nand,
                    GatePrim::Nor => GateKind::Nor,
                    GatePrim::Xor => GateKind::Xor,
                    GatePrim::Xnor => GateKind::Xnor,
                    _ => unreachable!(),
                };
                self.add_gate(kind, out, inputs, owner, delay, path)?;
            }
            GatePrim::Buf | GatePrim::Not => {
                if n < 2 {
                    return Err(Error::elab(format!(
                        "`{path}`: `{}` needs at least one output and one input",
                        prim.name()
                    )));
                }
                let input = self.scalar(&gi.terminals[n - 1], path, net_map, "gate input")?;
                let kind = if prim == GatePrim::Buf {
                    GateKind::Buf
                } else {
                    GateKind::Not
                };
                for t in &gi.terminals[..n - 1] {
                    let out = self.scalar(t, path, net_map, "gate output")?;
                    self.add_gate(kind, out, vec![input], owner, delay, path)?;
                }
            }
            GatePrim::Dff | GatePrim::Latch => {
                if n != 3 {
                    return Err(Error::elab(format!(
                        "`{path}`: `{}` needs exactly (q, {}, d) terminals",
                        prim.name(),
                        if prim == GatePrim::Dff { "clk" } else { "en" }
                    )));
                }
                let q = self.scalar(&gi.terminals[0], path, net_map, "dff output")?;
                let ctl = self.scalar(&gi.terminals[1], path, net_map, "dff clock/enable")?;
                let d = self.scalar(&gi.terminals[2], path, net_map, "dff data")?;
                let kind = if prim == GatePrim::Dff {
                    GateKind::Dff
                } else {
                    GateKind::Latch
                };
                self.add_gate(kind, q, vec![ctl, d], owner, delay, path)?;
            }
            GatePrim::Dffr => {
                if n != 4 {
                    return Err(Error::elab(format!(
                        "`{path}`: `dffr` needs exactly (q, clk, rst, d) terminals"
                    )));
                }
                let q = self.scalar(&gi.terminals[0], path, net_map, "dffr output")?;
                let clk = self.scalar(&gi.terminals[1], path, net_map, "dffr clock")?;
                let rst = self.scalar(&gi.terminals[2], path, net_map, "dffr reset")?;
                let d = self.scalar(&gi.terminals[3], path, net_map, "dffr data")?;
                self.add_gate(GateKind::Dffr, q, vec![clk, rst, d], owner, delay, path)?;
            }
        }
        Ok(())
    }

    fn elab_assign(
        &mut self,
        lhs: &Expr,
        rhs: &Expr,
        owner: InstId,
        path: &str,
        net_map: &NetMap,
    ) -> Result<()> {
        if matches!(lhs, Expr::Literal { .. }) {
            return Err(Error::elab(format!(
                "`{path}`: assign target cannot be a literal"
            )));
        }
        let lbits = self.resolve_expr(lhs, path, net_map)?;
        let rbits = self.resolve_expr(rhs, path, net_map)?;
        if lbits.len() != rbits.len() {
            return Err(Error::elab(format!(
                "`{path}`: assign width mismatch: {} = {} ({} vs {} bits)",
                lhs.display(),
                rhs.display(),
                lbits.len(),
                rbits.len()
            )));
        }
        for (l, r) in lbits.into_iter().zip(rbits) {
            self.add_gate(GateKind::Buf, l, vec![r], owner, None, path)?;
        }
        Ok(())
    }

    fn elab_module_inst(
        &mut self,
        module: &str,
        mi: &ModuleInstance,
        parent: InstId,
        path: &str,
        net_map: &NetMap,
    ) -> Result<()> {
        let child_path = format!("{path}.{}", mi.name);
        let info = self
            .modules
            .get(module)
            .ok_or_else(|| Error::elab(format!("`{path}`: unknown module `{module}`")))?;
        let ports = &info.decl.ports;

        // Resolve the connection expression for each declared port.
        let mut port_exprs: Vec<Option<&Expr>> = vec![None; ports.len()];
        match &mi.connections {
            Connections::Positional(conns) => {
                if conns.len() != ports.len() && !conns.is_empty() {
                    return Err(Error::elab(format!(
                        "`{child_path}`: module `{module}` has {} ports but {} connections given",
                        ports.len(),
                        conns.len()
                    )));
                }
                for (slot, conn) in port_exprs.iter_mut().zip(conns.iter()) {
                    *slot = conn.as_ref();
                }
            }
            Connections::Named(conns) => {
                // Listed, not only connected: `.i()` then `.i(a)` is a
                // second connection too.
                let mut listed = vec![false; ports.len()];
                for (pname, expr) in conns {
                    let idx = ports.iter().position(|p| p == pname).ok_or_else(|| {
                        Error::elab(format!(
                            "`{child_path}`: module `{module}` has no port `{pname}`"
                        ))
                    })?;
                    if std::mem::replace(&mut listed[idx], true) {
                        return Err(Error::elab(format!(
                            "`{child_path}`: port `{pname}` connected twice"
                        )));
                    }
                    port_exprs[idx] = expr.as_ref();
                }
            }
        }

        // Bind port bits: connected ports alias parent nets, unconnected
        // ports get fresh dangling nets.
        let mut child_map = NetMap::with_capacity(info.signals.len());
        for (pname, pexpr) in ports.iter().zip(port_exprs) {
            let sig = info.port_info(pname);
            let (width, range) = (sig.width(), sig.range);
            let bits = match pexpr {
                Some(e) => {
                    let bits = self.resolve_expr(e, path, net_map)?;
                    if bits.len() != width as usize {
                        return Err(Error::elab(format!(
                            "`{child_path}`: port `{pname}` is {width} bits but \
                             connection `{}` is {} bits",
                            e.display(),
                            bits.len()
                        )));
                    }
                    bits
                }
                None => self.fresh_nets(&child_path, pname, range),
            };
            child_map.insert(pname, Binding { bits, range });
        }

        // Create the instance-tree node.
        let child_id = InstId(self.netlist.instances.len() as u32);
        let depth = self.netlist.instances[parent.idx()].depth + 1;
        self.netlist.instances.push(Instance {
            name: mi.name.clone(),
            module: module.to_string(),
            parent: Some(parent),
            children: Vec::new(),
            depth,
            own_gates: 0,
            subtree_gates: 0,
        });
        self.netlist.instances[parent.idx()].children.push(child_id);

        self.elaborate_module(info, child_id, &child_path, child_map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_and_elaborate, parse_and_elaborate_top};

    const FULL_ADDER: &str = r#"
        module full_adder(a, b, cin, sum, cout);
          input a, b, cin; output sum, cout;
          wire s1, c1, c2;
          xor x1 (s1, a, b);
          xor x2 (sum, s1, cin);
          and a1 (c1, a, b);
          and a2 (c2, s1, cin);
          or  o1 (cout, c1, c2);
        endmodule
    "#;

    #[test]
    fn elaborates_full_adder() {
        let d = parse_and_elaborate(FULL_ADDER).unwrap();
        let nl = d.netlist();
        assert_eq!(d.top(), "full_adder");
        assert_eq!(nl.gate_count(), 5);
        assert_eq!(nl.primary_inputs.len(), 3);
        assert_eq!(nl.primary_outputs.len(), 2);
        nl.validate().unwrap();
    }

    #[test]
    fn hierarchy_two_level() {
        let src = format!(
            r#"
            module top(a, b, cin, sum, cout);
              input a, b, cin; output sum, cout;
              full_adder fa (.a(a), .b(b), .cin(cin), .sum(sum), .cout(cout));
            endmodule
            {FULL_ADDER}
        "#
        );
        let d = parse_and_elaborate(&src).unwrap();
        let nl = d.netlist();
        assert_eq!(nl.instance_count(), 1);
        assert_eq!(nl.instances[1].module, "full_adder");
        assert_eq!(nl.instances[1].subtree_gates, 5);
        assert_eq!(nl.instances[0].own_gates, 0);
        assert_eq!(nl.instances[0].subtree_gates, 5);
        // Port aliasing: no extra buf gates are inserted.
        assert_eq!(nl.gate_count(), 5);
        nl.validate().unwrap();
    }

    #[test]
    fn vector_ports_and_part_selects() {
        let src = r#"
            module top(a, y);
              input [3:0] a; output [1:0] y;
              or o0 (y[0], a[0], a[1]);
              or o1 (y[1], a[2], a[3]);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.netlist();
        assert_eq!(nl.primary_inputs.len(), 4);
        assert_eq!(nl.primary_outputs.len(), 2);
        assert_eq!(nl.gate_count(), 2);
    }

    #[test]
    fn assign_concat_literal() {
        let src = r#"
            module top(a, y);
              input [1:0] a; output [3:0] y;
              assign y = {1'b1, a, 1'b0};
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.netlist();
        // 4 bufs for the assign + const0 + const1 driver gates.
        assert_eq!(nl.gate_count(), 6);
        assert!(nl.const0_net.is_some());
        assert!(nl.const1_net.is_some());
        nl.validate().unwrap();
    }

    #[test]
    fn supply_nets_are_constant() {
        let src = r#"
            module top(y);
              output y;
              supply1 vdd;
              buf b (y, vdd);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.netlist();
        let buf = nl.gates.iter().find(|g| g.kind == GateKind::Buf).unwrap();
        assert_eq!(Some(buf.inputs[0]), nl.const1_net);
    }

    #[test]
    fn buf_with_multiple_outputs_expands() {
        let src = r#"
            module top(a, x, y, z);
              input a; output x, y, z;
              buf b1 (x, y, z, a);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        assert_eq!(d.netlist().gate_count(), 3);
    }

    #[test]
    fn unconnected_ports_are_dangling() {
        let src = r#"
            module top(a, y);
              input a; output y;
              sub s (.i(a), .o(y), .nc());
            endmodule
            module sub(i, o, nc);
              input i, nc; output o;
              buf b (o, i);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        d.netlist().validate().unwrap();
    }

    #[test]
    fn width_mismatch_is_error() {
        let src = r#"
            module top(a, y);
              input [3:0] a; output y;
              sub s (a, y);
            endmodule
            module sub(i, o);
              input [1:0] i; output o;
              or g (o, i[0], i[1]);
            endmodule
        "#;
        let e = parse_and_elaborate(src).unwrap_err();
        assert!(e.to_string().contains("bits"), "{e}");
    }

    #[test]
    fn multiply_driven_net_is_error() {
        let src = r#"
            module top(a, b, y);
              input a, b; output y;
              buf b1 (y, a);
              buf b2 (y, b);
            endmodule
        "#;
        let e = parse_and_elaborate(src).unwrap_err();
        assert!(e.to_string().contains("multiply driven"), "{e}");
    }

    #[test]
    fn recursive_instantiation_is_error() {
        let src = r#"
            module top(y); output y; r r0 (y); endmodule
            module r(y); output y; r inner (y); endmodule
        "#;
        let e = parse_and_elaborate(src).unwrap_err();
        assert!(e.to_string().contains("recursive"), "{e}");
    }

    #[test]
    fn unknown_module_is_error() {
        let src = "module top(y); output y; ghost g0 (y); endmodule";
        let e = parse_and_elaborate(src).unwrap_err();
        assert!(e.to_string().contains("unknown module"), "{e}");
    }

    #[test]
    fn explicit_top_selection() {
        let src = "module a; endmodule module b; endmodule";
        let d = parse_and_elaborate_top(src, "b").unwrap();
        assert_eq!(d.top(), "b");
        assert!(parse_and_elaborate_top(src, "zzz").is_err());
        // Ambiguous without explicit top (neither named `top`, both roots).
        assert!(parse_and_elaborate(src).is_err());
    }

    #[test]
    fn top_named_top_wins() {
        let src = "module a; endmodule module top; endmodule";
        let d = parse_and_elaborate(src).unwrap();
        assert_eq!(d.top(), "top");
    }

    #[test]
    fn undeclared_signal_is_error() {
        let src = "module top(y); output y; buf b (y, mystery); endmodule";
        let e = parse_and_elaborate(src).unwrap_err();
        assert!(e.to_string().contains("undeclared"), "{e}");
    }

    #[test]
    fn dff_elaborates_with_clk_and_d() {
        let src = r#"
            module top(clk, d, q);
              input clk, d; output q;
              dff f (q, clk, d);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let g = &d.netlist().gates[0];
        assert_eq!(g.kind, GateKind::Dff);
        assert_eq!(g.inputs.len(), 2);
    }

    #[test]
    fn dffr_elaborates_with_reset() {
        let src = r#"
            module top(clk, rst, d, q);
              input clk, rst, d; output q;
              dffr f (q, clk, rst, d);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let g = &d.netlist().gates[0];
        assert_eq!(g.kind, GateKind::Dffr);
        assert_eq!(g.inputs.len(), 3);
        d.netlist().validate().unwrap();
        // Wrong arity is rejected.
        let bad = "module top(clk, d, q); input clk, d; output q; dffr f (q, clk, d); endmodule";
        assert!(parse_and_elaborate(bad).is_err());
    }

    #[test]
    fn gate_terminal_must_be_scalar() {
        let src = r#"
            module top(a, y);
              input [1:0] a; output y;
              buf b (y, a);
            endmodule
        "#;
        let e = parse_and_elaborate(src).unwrap_err();
        assert!(e.to_string().contains("1 bit"), "{e}");
    }

    #[test]
    fn three_level_hierarchy_counts() {
        let src = r#"
            module top(a, y);
              input a; output y;
              mid m0 (a, y);
            endmodule
            module mid(i, o);
              input i; output o;
              wire t;
              leaf l0 (i, t);
              buf b (o, t);
            endmodule
            module leaf(i, o);
              input i; output o;
              not n1 (o, i);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.netlist();
        assert_eq!(nl.instance_count(), 2);
        assert_eq!(nl.instances[0].subtree_gates, 2);
        let mid = &nl.instances[1];
        assert_eq!(mid.module, "mid");
        assert_eq!(mid.own_gates, 1);
        assert_eq!(mid.subtree_gates, 2);
        assert_eq!(nl.instance_path(crate::netlist::InstId(2)), "top.m0.l0");
    }

    /// FNV-1a over every net (name, driver), gate (kind, output, inputs,
    /// owner, delay) and instance (name, module, parent, children, own and
    /// subtree gates) in creation order, plus the primary ports and the
    /// constant nets.
    fn fingerprint(nl: &Netlist) -> u64 {
        use std::fmt::Write;
        struct Fnv(u64);
        impl Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                for b in s.bytes() {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
                Ok(())
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for n in &nl.nets {
            write!(h, "{} {:?};", n.name, n.driver).unwrap();
        }
        for g in &nl.gates {
            let (kind, out, owner) = (g.kind.name(), g.output, g.owner);
            write!(h, "{kind} {out} {:?} {owner} {:?};", g.inputs, g.delay).unwrap();
        }
        for i in &nl.instances {
            let (name, module, own, sub) = (&i.name, &i.module, i.own_gates, i.subtree_gates);
            write!(
                h,
                "{name} {module} {:?} {:?} {own} {sub};",
                i.parent, i.children
            )
            .unwrap();
        }
        let (pi, po) = (&nl.primary_inputs, &nl.primary_outputs);
        write!(h, "{pi:?} {po:?} {:?} {:?}", nl.const0_net, nl.const1_net).unwrap();
        h.0
    }

    /// Every construct the elaborator handles, pinned byte for byte: supply
    /// nets, a literal port connection that creates a constant net inside
    /// `mid`, an unconnected port, bit and part selects on a `[7:4]` and a
    /// `[0:1]` range, concats, a two-output `buf`, a delayed gate, a `dffr`,
    /// a `latch`, and `leaf` instantiated at depths 1 and 2. The fingerprint
    /// was captured before the elaborator stopped copying module bodies per
    /// instance.
    #[test]
    fn elaboration_is_pinned_byte_for_byte() {
        let src = r#"
            module top(clk, rst, en, a, b, y, z);
              input clk, rst, en, b;
              input [3:0] a;
              output [1:0] y;
              output z;
              wire [7:4] t;
              wire u, v, w, q;
              supply0 gnd;
              mid m0 (.clk(clk), .i(a[1:0]), .o(t[5:4]));
              leaf l1 (.i({b, gnd}), .o(u), .nc());
              buf bm (v, w, t[5]);
              dffr r0 (q, clk, rst, v);
              latch la (z, en, q);
              assign t[7:6] = a[3:2];
              assign y = {w, u};
            endmodule
            module mid(clk, i, o);
              input clk; input [1:0] i; output [1:0] o;
              wire k;
              leaf l0 (.i(i), .o(k), .nc(1'b1));
              and #2 g (o[0], k, i[1]);
              dff f (o[1], clk, k);
            endmodule
            module leaf(i, o, nc);
              input [0:1] i; input nc; output o;
              supply1 vdd;
              wire p;
              xor x (p, i[0], i[1]);
              and g (o, p, vdd, nc);
            endmodule
        "#;
        let d = parse_and_elaborate(src).unwrap();
        let nl = d.netlist();
        nl.validate().unwrap();
        assert_eq!(nl.instance_path(InstId(2)), "top.m0.l0");
        assert_eq!(nl.instance_path(InstId(3)), "top.l1");
        assert_eq!(format!("{:016x}", fingerprint(nl)), "20dd1e31f4d4fd27");
    }

    #[test]
    fn child_and_parent_driving_one_net_is_error() {
        let src = r#"
            module top(a, b, y);
              input a, b; output y;
              sub s (.i(a), .o(y));
              buf p (y, b);
            endmodule
            module sub(i, o);
              input i; output o;
              buf c (o, i);
            endmodule
        "#;
        let e = parse_and_elaborate(src).unwrap_err();
        assert!(e.to_string().contains("multiply driven"), "{e}");
    }

    #[test]
    fn named_port_connected_twice_is_error() {
        for conns in [".i(), .i(a)", ".i(a), .i()", ".i(), .i()", ".i(a), .i(a)"] {
            let src = format!(
                "module top(a, y); input a; output y; sub s ({conns}, .o(y)); endmodule
                 module sub(i, o); input i; output o; buf c (o, i); endmodule"
            );
            let e = parse_and_elaborate(&src).unwrap_err();
            assert!(
                e.to_string().contains("port `i` connected twice"),
                "{conns}: {e}"
            );
        }
    }
}

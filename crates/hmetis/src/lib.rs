//! # dvs-hmetis
//!
//! A from-scratch multilevel hypergraph partitioner in the style of hMetis
//! (Karypis, Aggarwal, Kumar & Shekhar, DAC 1997 / IEEE TVLSI 1999) — the
//! baseline the paper compares its design-driven algorithm against. It
//! operates on the **flattened** netlist hypergraph and is hierarchy-blind
//! by construction.
//!
//! Pipeline (per bisection):
//!
//! 1. **Coarsening**: a sequence of successively smaller hypergraphs is
//!    built by FirstChoice clustering, preserving cut structure (parallel
//!    coarse edges merge, weights add).
//! 2. **Initial partitioning**: on the coarsest graph, many random and BFS
//!    region-growing bisections are generated and the best feasible one
//!    wins.
//! 3. **Uncoarsening + refinement**: the bisection is projected back level
//!    by level, running FM refinement at every level.
//!
//! K-way partitions are produced by recursive bisection, with asymmetric
//! weight targets so any k (not just powers of two) works. After each
//! bisection one V-cycle re-coarsens the partitioned graph within its
//! blocks and refines again, keeping the result if it is better.
//!
//! ```
//! use dvs_hypergraph::{HypergraphBuilder, Partition};
//! use dvs_hmetis::{HmetisConfig, partition_kway};
//!
//! let mut b = HypergraphBuilder::new();
//! let v: Vec<_> = (0..8).map(|_| b.add_vertex(1)).collect();
//! for w in v.windows(2) {
//!     b.add_edge([w[0], w[1]], 1);
//! }
//! let hg = b.build();
//! let part = partition_kway(&hg, 2, &HmetisConfig::default());
//! assert_eq!(part.k(), 2);
//! assert!(part.hyperedge_cut(&hg) >= 1);
//! ```

mod bisect;
mod coarsen;
mod config;
mod initial;
mod kway;

pub use config::HmetisConfig;
pub use kway::partition_kway;

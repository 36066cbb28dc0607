//! TPC-H-style workload (`dbgen`-lite).
//!
//! The demo's second dataset is "data generated by the TPC Benchmark H"
//! with "a subset of its queries" (§4). The official C `dbgen` is not
//! available offline, so this module implements a seeded generator with
//! the same schema, key structure and value families at a configurable
//! scale factor, plus provenance-parameterized analogues of Q1, Q3, Q5,
//! Q6 and Q10 and the geography/time abstraction trees that make the
//! compression meaningful (regions group nations; quarters group months).
//!
//! COBRA consumes only the polynomials' combinatorial structure — which
//! (context, variable) pairs occur — which this generator reproduces, so
//! substituting it for `dbgen` does not change what is being compressed.

mod gen;
mod queries;
mod text;

pub use gen::{TpchConfig, TpchDatabase};
pub use queries::{
    geography_tree, part_tree, time_tree, InstrumentedTpch, PriceDimension, TpchQuery,
    TPCH_QUERIES,
};
pub use text::{nation_var_name, MKT_SEGMENTS, NATIONS, REGIONS};

//! Shared foundation types for the `bfq` engine.
//!
//! This crate deliberately has no dependencies on the rest of the workspace so
//! every other crate can use its types: scalar [`Datum`]s and [`DataType`]s,
//! calendar [`date`] helpers, the [`RelSet`] bitset used by the optimizer to
//! identify sets of base relations, typed [`ids`], and the shared
//! [`error::BfqError`] type.

pub mod date;
pub mod error;
pub mod hash;
pub mod ids;
pub mod interrupt;
pub mod relset;
pub mod value;

pub use error::{BfqError, Result};
pub use ids::{ColumnId, FilterId, TableId};
pub use interrupt::{CancelHub, CancelReason, CancelToken};
pub use relset::RelSet;
pub use value::{DataType, Datum};

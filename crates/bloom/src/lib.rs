//! Bloom filter substrate.
//!
//! Everything the paper's runtime needs (§3.5, §3.9):
//! * [`BloomFilter`] — a filter with **two** hash bits per key (the paper
//!   fixes k = 2 "for performance reasons"), both confined to one 512-bit
//!   block so a probe costs a single cache miss, sized from an upper-bound
//!   estimate of the build side's distinct values;
//! * [`math`] — the sizing and false-positive-rate formulas shared with the
//!   cost model;
//! * [`RuntimeFilter`] — the one filter a join's build side publishes,
//!   whichever §3.9 streaming case produced it, plus the exact key hashes
//!   of a small build, which let scans skip whole chunks;
//! * [`hub::FilterHub`] — the runtime rendezvous between the hash join that
//!   builds a filter and the scan that applies it ("table scans wait for all
//!   Bloom filter partitions to become available", §3.9).

pub mod filter;
pub mod hub;
pub mod math;

pub use filter::{BloomFilter, BLOOM_SEED};
pub use hub::{FilterHub, ProbeScratch, RuntimeFilter};
pub use math::{bits_for_ndv, blocked_fpr, default_fpr, BLOCK_BITS, DEFAULT_BITS_PER_KEY};

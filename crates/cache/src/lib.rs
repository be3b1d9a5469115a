#![warn(missing_docs)]

//! # cacheportal-cache
//!
//! The cache substrate of the CachePortal reproduction:
//! [`page_cache::PageCache`] — the dynamic web-page cache of
//! Configuration III, honouring eject-style invalidation messages, with
//! SIEVE eviction and optional TTL (the time-based-refresh baseline).
//! (Configuration II's middle-tier data cache is modelled in
//! `cacheportal-sim`, which is what reproduces the paper's Conf II numbers.)

pub mod page_cache;
pub mod stats;

pub use page_cache::{PageCache, PageCacheConfig};
pub use stats::CacheStats;

//! Paged KV-cache management with migration and recomputation
//! (Sec. VIII-C of the paper, after PagedAttention).
//!
//! The KV cache grows with batch size and sequence length; when it
//! outgrows device memory a serving system can *evict* requests,
//! either migrating their KV pages to host memory (and paying PCIe
//! bytes twice) or deleting them and recomputing the prefill later.
//! The paper notes both "can be complementarily applied to Duplex";
//! this module provides the bookkeeping and the cost hooks so the
//! harness can quantify that trade.
//!
//! Pages are fixed-size blocks of tokens; a request owns a page list.
//! Eviction is LRU over requests (ongoing decode requests touch their
//! pages every stage, so LRU == "longest since scheduled").

use std::collections::HashMap;

/// What to do with an evicted request's KV pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionPolicy {
    /// Copy pages to host memory; restore copies them back.
    Migrate,
    /// Drop pages; restore recomputes the prefill.
    Recompute,
}

/// An eviction or restoration event, for cost accounting upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvEvent {
    /// Pages moved device -> host.
    MigratedOut {
        /// Request id.
        request: u64,
        /// Bytes moved.
        bytes: u64,
    },
    /// Pages moved host -> device.
    MigratedIn {
        /// Request id.
        request: u64,
        /// Bytes moved.
        bytes: u64,
    },
    /// KV must be rebuilt by re-running the prefill.
    Recomputed {
        /// Request id.
        request: u64,
        /// Tokens to re-prefill.
        tokens: u64,
    },
}

/// Errors from cache operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvCacheError {
    /// The cache cannot fit the request even after evicting everything
    /// else.
    CapacityExceeded {
        /// Bytes requested.
        requested: u64,
        /// Total capacity.
        capacity: u64,
    },
    /// Operation on a request the cache does not know.
    UnknownRequest(u64),
}

impl std::fmt::Display for KvCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvCacheError::CapacityExceeded {
                requested,
                capacity,
            } => {
                write!(f, "request needs {requested} bytes, cache holds {capacity}")
            }
            KvCacheError::UnknownRequest(id) => write!(f, "unknown request {id}"),
        }
    }
}

impl std::error::Error for KvCacheError {}

#[derive(Debug, Clone)]
struct Entry {
    pages: u64,
    tokens: u64,
    last_touch: u64,
    resident: bool,
}

/// One cache entry as exported by [`PagedKvCache::export_entries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvEntrySnapshot {
    /// The request (or conversation) owning the entry.
    pub request: u64,
    /// Pages currently allocated (0 for a recompute-evicted entry).
    pub pages: u64,
    /// Tokens of context the entry covers.
    pub tokens: u64,
    /// LRU clock stamp of the entry's last touch.
    pub last_touch: u64,
    /// Whether the pages are on-device.
    pub resident: bool,
}

/// Page-granular KV cache for one device pool.
#[derive(Debug, Clone)]
pub struct PagedKvCache {
    page_tokens: u64,
    bytes_per_token: u64,
    capacity_bytes: u64,
    policy: EvictionPolicy,
    clock: u64,
    entries: HashMap<u64, Entry>,
    resident_pages: u64,
}

impl PagedKvCache {
    /// A cache of `capacity_bytes` using pages of `page_tokens` tokens,
    /// with `bytes_per_token` from the model config.
    ///
    /// # Panics
    ///
    /// Panics if `page_tokens` or `bytes_per_token` is zero.
    pub fn new(
        capacity_bytes: u64,
        page_tokens: u64,
        bytes_per_token: u64,
        policy: EvictionPolicy,
    ) -> Self {
        assert!(page_tokens > 0, "pages must hold at least one token");
        assert!(bytes_per_token > 0, "tokens must occupy bytes");
        Self {
            page_tokens,
            bytes_per_token,
            capacity_bytes,
            policy,
            clock: 0,
            entries: HashMap::new(),
            resident_pages: 0,
        }
    }

    fn page_bytes(&self) -> u64 {
        self.page_tokens * self.bytes_per_token
    }

    fn pages_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.page_tokens)
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_pages * self.page_bytes()
    }

    /// Internal fragmentation: allocated-but-unused token slots as a
    /// fraction of resident capacity (PagedAttention keeps this under
    /// one page per request).
    pub fn fragmentation(&self) -> f64 {
        let resident_tokens: u64 = self
            .entries
            .values()
            .filter(|e| e.resident)
            .map(|e| e.tokens)
            .sum();
        let slots = self.resident_pages * self.page_tokens;
        if slots == 0 {
            return 0.0;
        }
        1.0 - resident_tokens as f64 / slots as f64
    }

    /// Admit a request with `tokens` of context, evicting LRU victims
    /// as needed. Returns the eviction events incurred.
    ///
    /// # Errors
    ///
    /// [`KvCacheError::CapacityExceeded`] if the request alone exceeds
    /// the cache.
    pub fn admit(&mut self, request: u64, tokens: u64) -> Result<Vec<KvEvent>, KvCacheError> {
        let pages = self.pages_for(tokens);
        let bytes = pages * self.page_bytes();
        if bytes > self.capacity_bytes {
            return Err(KvCacheError::CapacityExceeded {
                requested: bytes,
                capacity: self.capacity_bytes,
            });
        }
        let mut events = Vec::new();
        while self.resident_bytes() + bytes > self.capacity_bytes {
            events.push(self.evict_lru(request));
        }
        self.clock += 1;
        self.entries.insert(
            request,
            Entry {
                pages,
                tokens,
                last_touch: self.clock,
                resident: true,
            },
        );
        self.resident_pages += pages;
        Ok(events)
    }

    /// Append `tokens` decode tokens to a resident request, growing its
    /// page list (evicting LRU victims if a new page is needed).
    ///
    /// # Errors
    ///
    /// [`KvCacheError::UnknownRequest`] if the request is not resident.
    pub fn append(&mut self, request: u64, tokens: u64) -> Result<Vec<KvEvent>, KvCacheError> {
        let (new_pages, _old_pages) = {
            let e = self
                .entries
                .get(&request)
                .filter(|e| e.resident)
                .ok_or(KvCacheError::UnknownRequest(request))?;
            (self.pages_for(e.tokens + tokens), e.pages)
        };
        let e = self.entries.get_mut(&request).expect("checked above");
        let grow = new_pages - e.pages;
        e.tokens += tokens;
        e.pages = new_pages;
        self.clock += 1;
        e.last_touch = self.clock;
        self.resident_pages += grow;
        let mut events = Vec::new();
        while self.resident_bytes() > self.capacity_bytes {
            events.push(self.evict_lru(request));
        }
        Ok(events)
    }

    /// Evict the least-recently-used resident request, if any. This is
    /// the external pressure hook: a scheduler that parks finished
    /// conversations' KV between turns calls it to make room for new
    /// admissions (reuse-aware accounting in the scenario suite).
    pub fn evict_one(&mut self) -> Option<KvEvent> {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| e.resident)
            .min_by_key(|(_, e)| e.last_touch)
            .map(|(id, _)| *id)?;
        Some(self.evict_victim(victim))
    }

    fn evict_lru(&mut self, protect: u64) -> KvEvent {
        let victim = self
            .entries
            .iter()
            .filter(|(id, e)| e.resident && **id != protect)
            .min_by_key(|(_, e)| e.last_touch)
            .map(|(id, _)| *id)
            .expect("capacity invariant: another resident request exists");
        self.evict_victim(victim)
    }

    fn evict_victim(&mut self, victim: u64) -> KvEvent {
        let e = self.entries.get_mut(&victim).expect("victim exists");
        e.resident = false;
        self.resident_pages -= e.pages;
        match self.policy {
            EvictionPolicy::Migrate => KvEvent::MigratedOut {
                request: victim,
                bytes: e.pages * self.page_tokens * self.bytes_per_token,
            },
            EvictionPolicy::Recompute => {
                let tokens = e.tokens;
                e.pages = 0;
                KvEvent::Recomputed {
                    request: victim,
                    tokens,
                }
            }
        }
    }

    /// Bring an evicted request back, evicting others if needed.
    /// Returns the restoration event plus any evictions it caused.
    ///
    /// # Errors
    ///
    /// [`KvCacheError::UnknownRequest`] if the request was never seen.
    pub fn restore(&mut self, request: u64) -> Result<Vec<KvEvent>, KvCacheError> {
        let e = self
            .entries
            .get(&request)
            .ok_or(KvCacheError::UnknownRequest(request))?;
        if e.resident {
            return Ok(Vec::new());
        }
        let tokens = e.tokens;
        let bytes = self.pages_for(tokens) * self.page_bytes();
        let mut events = Vec::new();
        while self.resident_bytes() + bytes > self.capacity_bytes {
            events.push(self.evict_lru(request));
        }
        let e = self.entries.get_mut(&request).expect("checked above");
        e.resident = true;
        e.pages = tokens.div_ceil(self.page_tokens);
        self.clock += 1;
        e.last_touch = self.clock;
        self.resident_pages += e.pages;
        events.push(match self.policy {
            EvictionPolicy::Migrate => KvEvent::MigratedIn { request, bytes },
            EvictionPolicy::Recompute => KvEvent::Recomputed { request, tokens },
        });
        Ok(events)
    }

    /// Remove a finished request, freeing its pages.
    pub fn release(&mut self, request: u64) {
        if let Some(e) = self.entries.remove(&request) {
            if e.resident {
                self.resident_pages -= e.pages;
            }
        }
    }

    /// Whether a request's KV is resident.
    pub fn is_resident(&self, request: u64) -> bool {
        self.entries
            .get(&request)
            .map(|e| e.resident)
            .unwrap_or(false)
    }

    /// Tokens of a request's resident KV, `None` when absent or
    /// swapped out. A parked conversation history is append-only, so a
    /// stale entry (parked by an earlier round) is a valid *prefix* of
    /// the current history — callers reusing it must credit this
    /// length, not the length they wish were resident.
    pub fn resident_tokens(&self, request: u64) -> Option<u64> {
        self.entries
            .get(&request)
            .filter(|e| e.resident)
            .map(|e| e.tokens)
    }

    /// Export the cache's dynamic state: the LRU clock and the entry
    /// table. Entries are sorted by request id so the export is
    /// deterministic regardless of hash-map iteration order; each
    /// entry's `last_touch` stamp is unique (the clock is strictly
    /// increasing), so the stamps give the exact LRU order.
    pub fn export_entries(&self) -> (u64, Vec<KvEntrySnapshot>) {
        let mut entries: Vec<KvEntrySnapshot> = self
            .entries
            .iter()
            .map(|(id, e)| KvEntrySnapshot {
                request: *id,
                pages: e.pages,
                tokens: e.tokens,
                last_touch: e.last_touch,
                resident: e.resident,
            })
            .collect();
        entries.sort_unstable_by_key(|e| e.request);
        (self.clock, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity_tokens: u64, policy: EvictionPolicy) -> PagedKvCache {
        // 1 byte/token so capacities read directly in tokens.
        PagedKvCache::new(capacity_tokens, 16, 1, policy)
    }

    #[test]
    fn admit_and_release_round_trip() {
        let mut c = cache(1024, EvictionPolicy::Migrate);
        let ev = c.admit(1, 100).expect("fits");
        assert!(ev.is_empty());
        assert_eq!(c.resident_bytes(), 112); // 7 pages of 16
        assert_eq!(c.resident_tokens(1), Some(100));
        assert_eq!(c.resident_tokens(2), None);
        c.release(1);
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.resident_tokens(1), None);
    }

    #[test]
    fn oversized_request_rejected() {
        let mut c = cache(64, EvictionPolicy::Migrate);
        let err = c.admit(1, 100).expect_err("too big");
        assert!(matches!(err, KvCacheError::CapacityExceeded { .. }));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(3 * 16, EvictionPolicy::Migrate);
        c.admit(1, 16).expect("fits");
        c.admit(2, 16).expect("fits");
        c.admit(3, 16).expect("fits");
        // Touch request 1 so 2 becomes LRU.
        c.append(1, 0).expect("resident");
        let ev = c.admit(4, 16).expect("evicts");
        assert_eq!(
            ev,
            vec![KvEvent::MigratedOut {
                request: 2,
                bytes: 16
            }]
        );
        assert!(!c.is_resident(2));
        assert!(c.is_resident(1));
    }

    #[test]
    fn append_grows_pages_and_can_evict() {
        let mut c = cache(2 * 16, EvictionPolicy::Recompute);
        c.admit(1, 16).expect("fits");
        c.admit(2, 16).expect("fits");
        // Growing request 2 past its page forces request 1 out.
        let ev = c.append(2, 1).expect("resident");
        assert_eq!(
            ev,
            vec![KvEvent::Recomputed {
                request: 1,
                tokens: 16
            }]
        );
    }

    #[test]
    fn restore_migrate_vs_recompute() {
        for policy in [EvictionPolicy::Migrate, EvictionPolicy::Recompute] {
            // Admit 2, evicting 1; then restore 1 after 2 finishes.
            let mut c = cache(2 * 16, policy);
            c.admit(1, 32).expect("fits");
            let ev = c.admit(2, 16).expect("evicts 1");
            assert_eq!(ev.len(), 1);
            c.release(2);
            let ev = c.restore(1).expect("known request");
            match policy {
                EvictionPolicy::Migrate => {
                    assert!(matches!(
                        ev.last(),
                        Some(KvEvent::MigratedIn {
                            request: 1,
                            bytes: 32
                        })
                    ));
                }
                EvictionPolicy::Recompute => {
                    assert!(matches!(
                        ev.last(),
                        Some(KvEvent::Recomputed {
                            request: 1,
                            tokens: 32
                        })
                    ));
                }
            }
            assert!(c.is_resident(1));
        }
    }

    #[test]
    fn fragmentation_bounded_by_one_page_per_request() {
        let mut c = cache(1 << 20, EvictionPolicy::Migrate);
        for r in 0..50u64 {
            c.admit(r, 17).expect("fits"); // 2 pages, 15 slots wasted
        }
        let frag = c.fragmentation();
        assert!(frag > 0.0 && frag < 0.5, "got {frag}");
    }

    #[test]
    fn unknown_request_errors() {
        let mut c = cache(64, EvictionPolicy::Migrate);
        assert!(matches!(
            c.append(9, 1),
            Err(KvCacheError::UnknownRequest(9))
        ));
        assert!(matches!(c.restore(9), Err(KvCacheError::UnknownRequest(9))));
    }

    #[test]
    fn evict_one_walks_lru_order_and_drains() {
        let mut c = cache(4 * 16, EvictionPolicy::Migrate);
        c.admit(1, 16).expect("fits");
        c.admit(2, 16).expect("fits");
        c.admit(3, 16).expect("fits");
        c.append(1, 0).expect("touch 1 so 2 is LRU");
        assert_eq!(
            c.evict_one(),
            Some(KvEvent::MigratedOut {
                request: 2,
                bytes: 16
            })
        );
        assert_eq!(
            c.evict_one(),
            Some(KvEvent::MigratedOut {
                request: 3,
                bytes: 16
            })
        );
        assert_eq!(
            c.evict_one(),
            Some(KvEvent::MigratedOut {
                request: 1,
                bytes: 16
            })
        );
        assert_eq!(c.evict_one(), None);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn resident_bytes_never_exceed_capacity() {
        let mut c = cache(8 * 16, EvictionPolicy::Recompute);
        for r in 0..20u64 {
            c.admit(r, 1 + (r % 40)).expect("fits after eviction");
            assert!(c.resident_bytes() <= 8 * 16, "at request {r}");
        }
    }
}

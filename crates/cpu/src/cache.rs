//! Trace-driven cache simulator used for the Fig. 5 characterization.
//!
//! Restructuring ops stream multi-megabyte batches through a cache
//! hierarchy sized for locality (paper testbed: 32 KB L1I/L1D, 1 MB
//! L2), so data misses are massive while the instruction working set
//! fits L1I. We reproduce this by generating a synthetic address trace
//! from an op's [`OpProfile`] and running it through set-associative
//! LRU caches.

use dmx_restructure::OpProfile;

/// One set-associative, LRU, write-allocate cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<u64>>, // per set: tags, most recent last
    ways: usize,
    line_bits: u32,
    set_mask: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache of `capacity` bytes, `ways`-associative, with
    /// 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity / (ways * 64)` is a nonzero power of two.
    pub(crate) fn new(capacity: usize, ways: usize) -> Cache {
        let line = 64;
        let n_sets = capacity / (ways * line);
        assert!(
            n_sets > 0 && n_sets.is_power_of_two(),
            "set count must be a nonzero power of two"
        );
        Cache {
            sets: vec![Vec::with_capacity(ways); n_sets],
            ways,
            line_bits: 6,
            set_mask: n_sets as u64 - 1,
            misses: 0,
        }
    }

    /// Accesses an address; returns `true` on hit.
    pub(crate) fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_bits;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            let t = ways.remove(pos);
            ways.push(t);
            true
        } else {
            self.misses += 1;
            if ways.len() == self.ways {
                ways.remove(0);
            }
            ways.push(tag);
            false
        }
    }

    /// Installs a line without counting an access (hardware prefetch).
    pub(crate) fn install(&mut self, addr: u64) {
        let line = addr >> self.line_bits;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&t| t == tag) {
            let t = ways.remove(pos);
            ways.push(t);
            return;
        }
        if ways.len() == self.ways {
            ways.remove(0);
        }
        ways.push(tag);
    }

    /// Total misses.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }
}

/// MPKI report for one op (the quantities Sec. IV.A cites).
#[derive(Debug, Clone, PartialEq)]
pub struct MpkiReport {
    /// Instruction-cache misses per kilo-instruction.
    pub l1i_mpki: f64,
    /// L1 data-cache misses per kilo-instruction.
    pub l1d_mpki: f64,
    /// L2 misses per kilo-instruction.
    pub l2_mpki: f64,
    /// Instructions simulated (scaled to the full op).
    pub instructions: u64,
}

/// Cache hierarchy configuration (testbed Xeon: Sec. IV.A cites the
/// 1 MB L2 explicitly).
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// L1 instruction cache bytes.
    pub l1i_bytes: usize,
    /// L1 data cache bytes.
    pub l1d_bytes: usize,
    /// Unified L2 bytes.
    pub l2_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            l1i_bytes: 32 << 10,
            l1d_bytes: 32 << 10,
            l2_bytes: 1 << 20,
        }
    }
}

/// AVX instructions per byte moved for a vectorized restructuring loop:
/// per 32-byte vector chunk, roughly a load, an op or two, a store and
/// loop bookkeeping amortized by unrolling.
fn instrs_per_byte(profile: &OpProfile) -> f64 {
    let base = 8.0 / 32.0; // ~8 instructions per 32 B chunk
                           // Irregular (gathered) elements need scalar address math.
    base * (1.0 + 3.0 * profile.irregular) + profile.branch_per_kb / 1024.0
}

/// Simulates an op's access trace and reports MPKI.
///
/// The trace is sampled: at most `max_bytes` of the op's stream is
/// simulated (the pattern is periodic, so MPKI converges quickly).
pub fn characterize(profile: &OpProfile, config: &CacheConfig, max_bytes: u64) -> MpkiReport {
    let mut l1i = Cache::new(config.l1i_bytes, 8);
    let mut l1d = Cache::new(config.l1d_bytes, 8);
    let mut l2 = Cache::new(config.l2_bytes, 16);

    // Instruction working set: a small loop body (restructuring
    // kernels fit in L1I — Sec. IV.A) plus occasional excursions into
    // runtime/library code that keep L1I misses nonzero.
    let loop_body_bytes: u64 = 3 << 10;
    let runtime_bytes: u64 = 256 << 10;
    let ipb = instrs_per_byte(profile);

    let elem: u64 = 32; // one vector chunk
                        // Simulate a fixed trace window; small working sets loop within it
                        // (amortizing cold misses), large ones stream through it.
    let steps = (max_bytes / elem).max(1);
    let in_span = profile.input_bytes.max(elem);
    let out_span = profile.output_bytes.max(elem);
    let scratch_span = profile.scratch_bytes.max(elem);
    // Address bases far apart so streams do not alias.
    let in_base = 0u64;
    let out_base = 1 << 34;
    let scratch_base = 1 << 35;
    let stack_base = 1 << 36;

    let mut instret = 0u64;
    let mut pc = 0u64;
    let mut rng: u64 = 0x2545F491_4F6CDD1D;
    let next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let extra_passes = (profile.stream_passes - 2.0).max(0.0);

    let mut rng2 = next;
    for i in 0..steps {
        // Instruction fetches for this chunk's worth of instructions.
        let n_instr = (ipb * elem as f64).ceil() as u64;
        for _ in 0..n_instr {
            pc = (pc + 8) % loop_body_bytes;
            // ~0.2% of fetches leave the loop (libc, allocator, MKL
            // dispatch) — the source of the residual ~2 L1I MPKI.
            let addr = if rng2() % 512 == 0 {
                (1 << 40) + (rng2() % runtime_bytes)
            } else {
                (1 << 41) + pc
            };
            l1i.access(addr);
            instret += 1;
        }
        // Data: streaming read, streaming write, optional scratch
        // re-traversals and irregular accesses.
        // The L2 next-line prefetcher hides roughly every other miss
        // of a sequential stream.
        let data = |l1d: &mut Cache, l2: &mut Cache, addr: u64, sequential: bool| {
            if !l1d.access(addr) && !l2.access(addr) && sequential {
                l2.install(addr + 64);
            }
        };
        let rd = in_base + (i * elem) % in_span;
        data(&mut l1d, &mut l2, rd, true);
        // Write-allocate: a store miss also fetches the line.
        let wr = out_base + (i * elem) % out_span;
        data(&mut l1d, &mut l2, wr, true);
        if extra_passes > 0.0
            && (i as f64 * extra_passes) as u64 != ((i + 1) as f64 * extra_passes) as u64
        {
            let sc = scratch_base + (i * elem) % scratch_span;
            data(&mut l1d, &mut l2, sc, true);
        }
        if profile.irregular > 0.0 && rng2() % 1000 < (profile.irregular * 1000.0) as u64 {
            let g = scratch_base + (rng2() % scratch_span.max(in_span));
            data(&mut l1d, &mut l2, g, false);
        }
        // A few stack/bookkeeping accesses that always hit.
        let st = stack_base + (rng2() % 512);
        data(&mut l1d, &mut l2, st, false);
    }

    let ki = (instret as f64 / 1000.0).max(1e-9);
    MpkiReport {
        l1i_mpki: l1i.misses() as f64 / ki,
        l1d_mpki: l1d.misses() as f64 / ki,
        l2_mpki: l2.misses() as f64 / ki,
        instructions: instret,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(mb: u64, passes: f64, irregular: f64, branchy: f64) -> OpProfile {
        OpProfile {
            name: "t".into(),
            input_bytes: mb << 20,
            output_bytes: mb << 20,
            scratch_bytes: (mb << 20) / 2,
            stream_passes: passes,
            ops_per_byte: 1.0,
            branch_per_kb: branchy,
            irregular,
        }
    }

    #[test]
    fn cache_basics() {
        let mut c = Cache::new(1024, 2);
        assert!(!c.access(0)); // cold miss
        assert!(c.access(0)); // hit
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 ways, 8 sets of 64B lines -> lines mapping to set 0 are
        // multiples of 64*8 = 512.
        let mut c = Cache::new(1024, 2);
        c.access(0);
        c.access(512);
        c.access(1024); // evicts line 0
        assert!(!c.access(0), "line 0 must have been evicted");
        assert!(c.access(1024));
    }

    #[test]
    fn streaming_op_matches_paper_bands() {
        // Sec. IV.A: 50-215 L1D MPKI, 25-109 L2 MPKI, ~2.3 L1I MPKI.
        let r = characterize(&profile(8, 3.0, 0.0, 1.0), &CacheConfig::default(), 4 << 20);
        assert!(
            r.l1d_mpki > 50.0 && r.l1d_mpki < 250.0,
            "L1D MPKI {} outside the paper's band",
            r.l1d_mpki
        );
        assert!(
            r.l2_mpki > 20.0 && r.l2_mpki < 120.0,
            "L2 MPKI {} outside the paper's band",
            r.l2_mpki
        );
        assert!(
            r.l1i_mpki > 0.3 && r.l1i_mpki < 8.0,
            "L1I MPKI {} should be small",
            r.l1i_mpki
        );
    }

    #[test]
    fn small_working_set_has_low_data_mpki() {
        let mut p = profile(8, 2.0, 0.0, 1.0);
        p.input_bytes = 64 << 10; // fits L2
        p.output_bytes = 64 << 10;
        p.scratch_bytes = 0;
        let r = characterize(&p, &CacheConfig::default(), 16 << 20);
        let big = characterize(&profile(8, 2.0, 0.0, 1.0), &CacheConfig::default(), 4 << 20);
        assert!(
            r.l2_mpki < big.l2_mpki / 3.0,
            "{} vs {}",
            r.l2_mpki,
            big.l2_mpki
        );
    }

    #[test]
    fn irregular_ops_miss_more() {
        let reg = characterize(&profile(8, 2.0, 0.0, 1.0), &CacheConfig::default(), 2 << 20);
        let irr = characterize(&profile(8, 2.0, 0.9, 1.0), &CacheConfig::default(), 2 << 20);
        assert!(irr.l1d_mpki + 1.0 > reg.l1d_mpki * 0.5);
        assert!(
            irr.instructions > reg.instructions,
            "gathers add address math"
        );
    }

    #[test]
    fn deterministic() {
        let a = characterize(&profile(4, 2.0, 0.2, 3.0), &CacheConfig::default(), 1 << 20);
        let b = characterize(&profile(4, 2.0, 0.2, 3.0), &CacheConfig::default(), 1 << 20);
        assert_eq!(a, b);
    }
}

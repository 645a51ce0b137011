//! Self-identifying block contents for the `stream` and `churn` workloads.
//!
//! Every 4 KiB block a workload writes starts with a stamp — owner (file
//! or key), version, block index — followed by noise taken from a pool
//! generated once from the seed. A reader can then name exactly which
//! write produced each block it gets back, so lost, torn and stale data
//! are told apart without keeping a copy of anything.

use blockdev::BLOCK_SIZE;

const STAMP: usize = 24;
const POOL_BLOCKS: usize = 64;

pub struct Payload {
    pool: Vec<u8>,
}

fn mix(owner: u64, version: u64, block: u64) -> u64 {
    let mut z = owner
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(version.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(block.wrapping_mul(0x1656_67B1_9E37_79F9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// The stamp found at the head of a block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stamp {
    pub owner: u64,
    pub version: u64,
    pub block: u64,
}

impl Payload {
    pub fn new(seed: u64) -> Payload {
        Payload {
            pool: workload::clients::content(seed ^ 0x5EED_B10C, POOL_BLOCKS * BLOCK_SIZE),
        }
    }

    fn noise(&self, s: Stamp) -> &[u8] {
        let k = (mix(s.owner, s.version, s.block) % POOL_BLOCKS as u64) as usize;
        &self.pool[k * BLOCK_SIZE + STAMP..(k + 1) * BLOCK_SIZE]
    }

    /// Fills `out` with `version` of `owner`'s blocks starting at block
    /// index `first`. Every block of `out`, including a short last one,
    /// must be at least [`STAMP`] bytes.
    pub fn fill(&self, owner: u64, version: u64, first: u64, out: &mut [u8]) {
        for (i, blk) in out.chunks_mut(BLOCK_SIZE).enumerate() {
            let s = Stamp {
                owner,
                version,
                block: first + i as u64,
            };
            blk[..8].copy_from_slice(&owner.to_le_bytes());
            blk[8..16].copy_from_slice(&version.to_le_bytes());
            blk[16..24].copy_from_slice(&s.block.to_le_bytes());
            let n = blk.len() - STAMP;
            blk[STAMP..].copy_from_slice(&self.noise(s)[..n]);
        }
    }

    /// The stamp of one block (or partial last block) if its contents are
    /// exactly what [`Payload::fill`] writes for that stamp.
    pub fn identify(&self, blk: &[u8]) -> Option<Stamp> {
        if blk.len() < STAMP {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(blk[i..i + 8].try_into().expect("8-byte slice"));
        let s = Stamp {
            owner: word(0),
            version: word(8),
            block: word(16),
        };
        let n = blk.len() - STAMP;
        (n <= BLOCK_SIZE - STAMP && blk[STAMP..] == self.noise(s)[..n]).then_some(s)
    }

    /// True when `data` is exactly `version` of `owner`'s blocks from
    /// block index `first` on.
    pub fn matches(&self, owner: u64, version: u64, first: u64, data: &[u8]) -> bool {
        data.chunks(BLOCK_SIZE).enumerate().all(|(i, blk)| {
            self.identify(blk)
                == Some(Stamp {
                    owner,
                    version,
                    block: first + i as u64,
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_round_trips_and_detects_other_versions() {
        let p = Payload::new(7);
        let mut buf = vec![0u8; 2 * BLOCK_SIZE + 512];
        p.fill(3, 9, 4, &mut buf);
        assert!(p.matches(3, 9, 4, &buf));
        assert!(!p.matches(3, 8, 4, &buf));
        assert!(!p.matches(3, 9, 5, &buf));
        let mut torn = buf.clone();
        p.fill(3, 8, 5, &mut torn[BLOCK_SIZE..2 * BLOCK_SIZE]);
        assert!(!p.matches(3, 9, 4, &torn));
        assert_eq!(
            p.identify(&torn[BLOCK_SIZE..2 * BLOCK_SIZE])
                .map(|s| s.version),
            Some(8)
        );
    }
}

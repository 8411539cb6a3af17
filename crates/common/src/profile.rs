//! Named engine profiles: the one environment variable the engine reads.
//!
//! CI runs the test suite under several forced regimes (small WAL segments,
//! background checkpoints, a memory budget, ...) so that paths a plain test
//! never reaches run on every push. Each regime is a row of
//! [`Profile::ALL`], chosen with `MAINLINE_PROFILE=<name> cargo test -q`.
//! The variable is read once per process; unset means no forcing, and an
//! unknown name panics with the valid ones, so a typo cannot quietly turn a
//! forced run into a plain one. A profile supplies defaults only: a value
//! set explicitly in a configuration always wins.

use std::sync::OnceLock;

/// One forced engine regime; `None` / `false` keeps the engine default.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// The name `MAINLINE_PROFILE` selects it by.
    pub name: &'static str,
    /// Rotate the WAL into archive segments past this many bytes.
    pub wal_segment_bytes: Option<u64>,
    /// Arm a write-only background checkpoint every this many bytes of WAL
    /// growth, for every logging database without a checkpoint config.
    pub checkpoint_bytes: Option<u64>,
    /// Checkpoint-chain GC after every checkpoint, as
    /// `(min_dead_ratio, tier_merge_count)`.
    pub compaction: Option<(f64, usize)>,
    /// Frozen-content memory budget for the cold-block buffer manager.
    pub memory_budget_bytes: Option<u64>,
    /// Transformation backpressure hard watermark.
    pub backpressure_bytes: Option<usize>,
    /// Record structured events in the obs event ring.
    pub events: bool,
}

const SEGMENT: Option<u64> = Some(64 << 10);

impl Profile {
    /// No forcing: every knob at the engine's default.
    pub const UNFORCED: Profile = Profile {
        name: "unforced",
        wal_segment_bytes: None,
        checkpoint_bytes: None,
        compaction: None,
        memory_budget_bytes: None,
        backpressure_bytes: None,
        events: false,
    };

    /// Every named profile, one per CI regime.
    pub const ALL: [Profile; 7] = [
        Profile { name: "throttled", backpressure_bytes: Some(4 << 20), ..Self::UNFORCED },
        Profile {
            name: "checkpointed",
            wal_segment_bytes: SEGMENT,
            checkpoint_bytes: Some(1 << 20),
            ..Self::UNFORCED
        },
        Profile {
            name: "evicted",
            wal_segment_bytes: SEGMENT,
            checkpoint_bytes: Some(1 << 20),
            memory_budget_bytes: Some(4 << 20),
            ..Self::UNFORCED
        },
        Profile { name: "observed", events: true, ..Self::UNFORCED },
        Profile {
            name: "crashpoint",
            wal_segment_bytes: SEGMENT,
            checkpoint_bytes: Some(256 << 10),
            ..Self::UNFORCED
        },
        Profile {
            name: "compacted",
            wal_segment_bytes: SEGMENT,
            checkpoint_bytes: Some(256 << 10),
            compaction: Some((0.05, 2)),
            ..Self::UNFORCED
        },
        Profile { name: "contended", backpressure_bytes: Some(16 << 20), ..Self::UNFORCED },
    ];

    /// Look a profile up by name. Pure: the error lists the valid names.
    pub fn parse(name: &str) -> Result<&'static Profile, String> {
        Self::ALL.iter().find(|p| p.name == name).ok_or_else(|| {
            let names: Vec<&str> = Self::ALL.iter().map(|p| p.name).collect();
            format!("unknown MAINLINE_PROFILE {name:?}; valid profiles: {}", names.join(", "))
        })
    }

    /// The process's profile, read from `MAINLINE_PROFILE` on first use.
    ///
    /// # Panics
    /// If the variable names no profile.
    pub fn current() -> &'static Profile {
        static CURRENT: OnceLock<&'static Profile> = OnceLock::new();
        CURRENT.get_or_init(|| match std::env::var("MAINLINE_PROFILE") {
            Ok(name) if !name.is_empty() => Self::parse(&name).unwrap_or_else(|e| panic!("{e}")),
            _ => &Self::UNFORCED,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_every_profile_and_rejects_the_rest() {
        for p in &Profile::ALL {
            assert_eq!(Profile::parse(p.name), Ok(p));
            assert_ne!(
                Profile { name: "unforced", ..*p },
                Profile::UNFORCED,
                "{} forces nothing",
                p.name
            );
        }
        let err = Profile::parse("evictd").unwrap_err();
        assert!(Profile::ALL.iter().all(|p| err.contains(p.name)), "{err}");
        assert!(Profile::parse("unforced").is_err());
    }
}

//! Serialisable policy selectors.
//!
//! A [`PolicyKind`] names a replacement policy *together with* the
//! manager settings it implies: Local LFD (w) requires a Dynamic-List
//! lookahead of `w` graphs, the LFD oracle requires full lookahead, the
//! skip variants require `skip_events` and mobility annotations. Keeping
//! these coupled prevents meaningless grid cells (e.g. an oracle with no
//! future view).

use rtr_core::{FifoPolicy, LfdPolicy, LfuPolicy, LruPolicy, MruPolicy, RandomPolicy};
use rtr_manager::{Lookahead, ReplacementPolicy};
use serde::{Deserialize, Serialize};

/// Policy selector for experiment grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Least Recently Used (the paper's baseline).
    Lru,
    /// First In First Out.
    Fifo,
    /// Most Recently Used.
    Mru,
    /// Least Frequently Used.
    Lfu,
    /// Seeded uniform-random victim.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// The paper's Local LFD with a Dynamic List of `window` graphs;
    /// `skip` enables the Skip Events feature.
    LocalLfd {
        /// Dynamic-List size in task graphs.
        window: usize,
        /// Skip Events on/off.
        skip: bool,
    },
    /// The clairvoyant LFD oracle (full future knowledge, no skips).
    Lfd,
}

impl PolicyKind {
    /// Instantiates the policy object.
    pub fn build(&self) -> Box<dyn ReplacementPolicy> {
        match *self {
            PolicyKind::Lru => Box::new(LruPolicy::new()),
            PolicyKind::Fifo => Box::new(FifoPolicy::new()),
            PolicyKind::Mru => Box::new(MruPolicy::new()),
            PolicyKind::Lfu => Box::new(LfuPolicy::new()),
            PolicyKind::Random { seed } => Box::new(RandomPolicy::new(seed)),
            PolicyKind::LocalLfd { window, skip } => Box::new(if skip {
                LfdPolicy::local_with_skip(window)
            } else {
                LfdPolicy::local(window)
            }),
            PolicyKind::Lfd => Box::new(LfdPolicy::oracle()),
        }
    }

    /// The Dynamic-List lookahead this policy needs.
    pub fn lookahead(&self) -> Lookahead {
        match *self {
            PolicyKind::LocalLfd { window, .. } => Lookahead::Graphs(window),
            PolicyKind::Lfd => Lookahead::All,
            // History policies ignore the future; Skip Events also needs
            // a window, but skip is only defined on LocalLfd.
            _ => Lookahead::None,
        }
    }

    /// Whether the manager's Skip Events feature must be enabled.
    pub fn skip_events(&self) -> bool {
        matches!(self, PolicyKind::LocalLfd { skip: true, .. })
    }

    /// Whether jobs need mobility annotations (implied by skips).
    pub fn needs_mobility(&self) -> bool {
        self.skip_events()
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> String {
        match *self {
            PolicyKind::Lru => "LRU".into(),
            PolicyKind::Fifo => "FIFO".into(),
            PolicyKind::Mru => "MRU".into(),
            PolicyKind::Lfu => "LFU".into(),
            PolicyKind::Random { .. } => "Random".into(),
            PolicyKind::LocalLfd {
                window,
                skip: false,
            } => format!("Local LFD ({window})"),
            PolicyKind::LocalLfd { window, skip: true } => {
                format!("Local LFD ({window}) + Skip Events")
            }
            PolicyKind::Lfd => "LFD".into(),
        }
    }

    /// The policy set of Fig. 9a (ASAP, no skips).
    pub fn fig9a_set() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Lru,
            PolicyKind::LocalLfd {
                window: 1,
                skip: false,
            },
            PolicyKind::LocalLfd {
                window: 2,
                skip: false,
            },
            PolicyKind::LocalLfd {
                window: 4,
                skip: false,
            },
            PolicyKind::Lfd,
        ]
    }

    /// The policy set of Fig. 9b (Skip Events impact on reuse).
    pub fn fig9b_set() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Lru,
            PolicyKind::LocalLfd {
                window: 1,
                skip: false,
            },
            PolicyKind::LocalLfd {
                window: 1,
                skip: true,
            },
            PolicyKind::Lfd,
        ]
    }

    /// The policy set of Fig. 9c (remaining overhead).
    pub fn fig9c_set() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Lru,
            PolicyKind::LocalLfd {
                window: 1,
                skip: true,
            },
            PolicyKind::LocalLfd {
                window: 2,
                skip: true,
            },
            PolicyKind::LocalLfd {
                window: 4,
                skip: true,
            },
            PolicyKind::Lfd,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(PolicyKind::Lru.label(), "LRU");
        assert_eq!(
            PolicyKind::LocalLfd {
                window: 4,
                skip: false
            }
            .label(),
            "Local LFD (4)"
        );
        assert_eq!(
            PolicyKind::LocalLfd {
                window: 1,
                skip: true
            }
            .label(),
            "Local LFD (1) + Skip Events"
        );
        assert_eq!(PolicyKind::Lfd.label(), "LFD");
    }

    #[test]
    fn lookahead_coupling() {
        assert_eq!(PolicyKind::Lru.lookahead(), Lookahead::None);
        assert_eq!(
            PolicyKind::LocalLfd {
                window: 2,
                skip: true
            }
            .lookahead(),
            Lookahead::Graphs(2)
        );
        assert_eq!(PolicyKind::Lfd.lookahead(), Lookahead::All);
    }

    #[test]
    fn skip_and_mobility_only_for_skip_variants() {
        assert!(!PolicyKind::Lfd.skip_events());
        assert!(!PolicyKind::LocalLfd {
            window: 1,
            skip: false
        }
        .needs_mobility());
        assert!(PolicyKind::LocalLfd {
            window: 1,
            skip: true
        }
        .needs_mobility());
    }

    #[test]
    fn build_produces_named_policies() {
        for kind in PolicyKind::fig9a_set() {
            let p = kind.build();
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn figure_sets_have_paper_cardinality() {
        assert_eq!(PolicyKind::fig9a_set().len(), 5);
        assert_eq!(PolicyKind::fig9b_set().len(), 4);
        assert_eq!(PolicyKind::fig9c_set().len(), 5);
    }

    #[test]
    fn serde_round_trip() {
        let k = PolicyKind::LocalLfd {
            window: 4,
            skip: true,
        };
        let json = serde_json::to_string(&k).unwrap();
        assert_eq!(serde_json::from_str::<PolicyKind>(&json).unwrap(), k);
    }
}

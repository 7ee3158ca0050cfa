//! Application-sequence models.
//!
//! §VI of the paper: "we have executed a sequence of 500 applications
//! randomly selected from our set of benchmarks". [`SequenceModel`]
//! reproduces that (uniform) selection and adds weighted, bursty and
//! round-robin variants, which `Scenario` JSON and the tests select.
//! All models are deterministic given a seed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtr_taskgraph::TaskGraph;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How application instances are drawn from the template set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SequenceModel {
    /// Uniform random selection — the paper's model.
    UniformRandom,
    /// Weighted random selection (weights aligned with the template
    /// list; they need not sum to 1).
    Weighted(Vec<f64>),
    /// Markovian bursts: with probability `repeat_prob` the previous
    /// application repeats, otherwise a uniform fresh draw. High repeat
    /// probabilities model the recurrent-task workloads reuse thrives
    /// on.
    Bursty {
        /// Probability of repeating the previous application.
        repeat_prob: f64,
    },
    /// Deterministic round-robin over the template list.
    RoundRobin,
}

impl SequenceModel {
    /// Checks the model against a template list of length `templates`:
    /// at least one template, `Weighted` weights one per template,
    /// non-negative, with a positive finite sum, and a `Bursty`
    /// `repeat_prob` in `[0, 1]`.
    pub fn validate(&self, templates: usize) -> Result<(), String> {
        if templates == 0 {
            return Err("need at least one template".into());
        }
        match self {
            SequenceModel::Weighted(weights) => {
                if weights.len() != templates {
                    return Err(format!(
                        "one weight per template required: {} weights, {templates} templates",
                        weights.len()
                    ));
                }
                if !weights.iter().all(|w| *w >= 0.0) {
                    return Err("weights must be non-negative".into());
                }
                let total: f64 = weights.iter().sum();
                if !(total > 0.0 && total.is_finite()) {
                    return Err("weights must have a positive, finite sum".into());
                }
            }
            SequenceModel::Bursty { repeat_prob } => {
                if !(0.0..=1.0).contains(repeat_prob) {
                    return Err(format!(
                        "repeat_prob must be a probability, got {repeat_prob}"
                    ));
                }
            }
            SequenceModel::UniformRandom | SequenceModel::RoundRobin => {}
        }
        Ok(())
    }

    /// Draws a sequence of `count` application instances.
    ///
    /// # Panics
    /// Panics with the [`SequenceModel::validate`] message if the model
    /// does not fit `templates`.
    pub fn generate(
        &self,
        templates: &[Arc<TaskGraph>],
        count: usize,
        seed: u64,
    ) -> Vec<Arc<TaskGraph>> {
        if let Err(e) = self.validate(templates.len()) {
            panic!("{e}");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            SequenceModel::UniformRandom => (0..count)
                .map(|_| Arc::clone(&templates[rng.random_range(0..templates.len())]))
                .collect(),
            SequenceModel::Weighted(weights) => {
                let total: f64 = weights.iter().sum();
                (0..count)
                    .map(|_| {
                        let mut x = rng.random_range(0.0..total);
                        let mut idx = 0;
                        for (i, w) in weights.iter().enumerate() {
                            if x < *w {
                                idx = i;
                                break;
                            }
                            x -= w;
                            idx = i;
                        }
                        Arc::clone(&templates[idx])
                    })
                    .collect()
            }
            SequenceModel::Bursty { repeat_prob } => {
                let mut out: Vec<Arc<TaskGraph>> = Vec::with_capacity(count);
                for _ in 0..count {
                    let repeat = !out.is_empty() && rng.random_bool(*repeat_prob);
                    if repeat {
                        out.push(Arc::clone(out.last().expect("non-empty")));
                    } else {
                        out.push(Arc::clone(&templates[rng.random_range(0..templates.len())]));
                    }
                }
                out
            }
            SequenceModel::RoundRobin => (0..count)
                .map(|i| Arc::clone(&templates[i % templates.len()]))
                .collect(),
        }
    }
}

/// The paper's benchmark templates {JPEG, MPEG-1, Hough}, shared by
/// every sequence drawn from them.
pub(crate) fn multimedia_templates() -> Vec<Arc<TaskGraph>> {
    rtr_taskgraph::benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect()
}

/// The paper's experimental workload: 500 uniform-random picks from
/// {JPEG, MPEG-1, Hough}.
pub fn paper_workload(seed: u64) -> Vec<Arc<TaskGraph>> {
    SequenceModel::UniformRandom.generate(&multimedia_templates(), 500, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_and_covers_templates() {
        let t = multimedia_templates();
        let a = SequenceModel::UniformRandom.generate(&t, 500, 42);
        let b = SequenceModel::UniformRandom.generate(&t, 500, 42);
        assert_eq!(a.len(), 500);
        assert!(a.iter().zip(&b).all(|(x, y)| Arc::ptr_eq(x, y)));
        // All three templates appear in a 500-long sequence.
        for tpl in &t {
            assert!(a.iter().any(|g| Arc::ptr_eq(g, tpl)));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let t = multimedia_templates();
        let a = SequenceModel::UniformRandom.generate(&t, 100, 1);
        let b = SequenceModel::UniformRandom.generate(&t, 100, 2);
        assert!(a.iter().zip(&b).any(|(x, y)| !Arc::ptr_eq(x, y)));
    }

    #[test]
    fn weighted_respects_zero_weight() {
        let t = multimedia_templates();
        let seq = SequenceModel::Weighted(vec![1.0, 0.0, 0.0]).generate(&t, 50, 3);
        assert!(seq.iter().all(|g| Arc::ptr_eq(g, &t[0])));
    }

    #[test]
    fn bursty_one_repeats_forever() {
        let t = multimedia_templates();
        let seq = SequenceModel::Bursty { repeat_prob: 1.0 }.generate(&t, 20, 5);
        assert!(seq.iter().all(|g| Arc::ptr_eq(g, &seq[0])));
    }

    #[test]
    fn bursty_zero_equals_uniform_draws() {
        let t = multimedia_templates();
        let seq = SequenceModel::Bursty { repeat_prob: 0.0 }.generate(&t, 50, 5);
        assert_eq!(seq.len(), 50);
    }

    #[test]
    fn round_robin_cycles() {
        let t = multimedia_templates();
        let seq = SequenceModel::RoundRobin.generate(&t, 7, 0);
        for (i, g) in seq.iter().enumerate() {
            assert!(Arc::ptr_eq(g, &t[i % 3]));
        }
    }

    #[test]
    fn paper_workload_is_500_apps() {
        let w = paper_workload(42);
        assert_eq!(w.len(), 500);
    }

    #[test]
    fn serde_round_trip() {
        let m = SequenceModel::Bursty { repeat_prob: 0.25 };
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(serde_json::from_str::<SequenceModel>(&json).unwrap(), m);
    }

    #[test]
    #[should_panic(expected = "at least one template")]
    fn empty_templates_panics() {
        SequenceModel::UniformRandom.generate(&[], 5, 0);
    }
}

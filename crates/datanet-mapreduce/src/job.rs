//! Cost profiles of MapReduce jobs.
//!
//! The simulator characterises a job by how much CPU work it does per input
//! byte in each phase and how much intermediate data it emits. The four
//! applications of Section V get profiles in `datanet-analytics`, calibrated
//! so the *relative* behaviour matches the paper: Moving Average iterates
//! (light), Word Count combines words (medium), Top-K compares sequences
//! (heavy).

/// Static cost model of one MapReduce job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// Human-readable job name.
    pub name: String,
    /// CPU work per map-input byte, as a multiple of the node's baseline
    /// scan rate (1.0 = plain iteration).
    pub map_compute_factor: f64,
    /// Map output bytes per map input byte (what enters the shuffle).
    pub output_ratio: f64,
    /// CPU work per reduce-input byte, as a multiple of the baseline rate.
    pub reduce_compute_factor: f64,
}

impl JobProfile {
    /// Create a profile.
    ///
    /// # Panics
    /// Panics on non-finite or negative parameters, or a zero map factor.
    pub fn new(
        name: impl Into<String>,
        map_compute_factor: f64,
        output_ratio: f64,
        reduce_compute_factor: f64,
    ) -> Self {
        let p = Self {
            name: name.into(),
            map_compute_factor,
            output_ratio,
            reduce_compute_factor,
        };
        p.validate();
        p
    }

    /// Validate parameter ranges.
    ///
    /// # Panics
    /// Panics on invalid parameters.
    pub fn validate(&self) {
        assert!(
            self.map_compute_factor.is_finite() && self.map_compute_factor > 0.0,
            "map compute factor must be positive"
        );
        assert!(
            self.output_ratio.is_finite() && self.output_ratio >= 0.0,
            "output ratio must be non-negative"
        );
        assert!(
            self.reduce_compute_factor.is_finite() && self.reduce_compute_factor >= 0.0,
            "reduce compute factor must be non-negative"
        );
        assert!(!self.name.is_empty(), "job needs a name");
    }

    /// Map output bytes for a given input size.
    pub fn map_output_bytes(&self, input: u64) -> u64 {
        (input as f64 * self.output_ratio).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_output() {
        let j = JobProfile::new("wordcount", 3.0, 0.4, 1.0);
        assert_eq!(j.name, "wordcount");
        assert_eq!(j.map_output_bytes(1000), 400);
        assert_eq!(j.map_output_bytes(0), 0);
    }

    #[test]
    fn zero_output_ratio_allowed() {
        let j = JobProfile::new("sink", 1.0, 0.0, 0.0);
        assert_eq!(j.map_output_bytes(12345), 0);
    }

    #[test]
    #[should_panic]
    fn zero_map_factor_rejected() {
        JobProfile::new("bad", 0.0, 0.1, 1.0);
    }

    #[test]
    #[should_panic]
    fn negative_output_rejected() {
        JobProfile::new("bad", 1.0, -0.1, 1.0);
    }

    #[test]
    #[should_panic]
    fn empty_name_rejected() {
        JobProfile::new("", 1.0, 0.1, 1.0);
    }
}

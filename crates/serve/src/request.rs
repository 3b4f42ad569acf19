//! Job submissions and their canonical, content-addressed form.
//!
//! A submission is the body of `POST /v1/jobs`: `key = value` lines naming
//! a model, algorithm, lattice side, seed, steps — the single-job subset of
//! the engine's batch format. Two submissions that mean the same job must
//! be served from the same cache entry, so the cache key is not a hash of
//! the raw text but of a *canonical* rendering: keys sorted, whitespace and
//! comments gone, defaults resolved, numbers re-rendered from their parsed
//! values (so `0.50` and `0.5` agree) — then SHA-256. Trajectories are a
//! pure function of the canonical fields, which is what makes the cache
//! semantically lossless.
//!
//! `checkpoint_every` is part of the key: observables are sampled on the
//! checkpoint grid, so the grid shapes the result bytes. The tenant is
//! deliberately *not* part of the key — identical physics is shared across
//! tenants; only scheduling is per-tenant.

use crate::sha256::sha256_hex;
use psr_core::Algorithm;
use psr_engine::spec::{parse_algorithm, ModelSpec};
use psr_engine::JobSpec;

/// A parsed, validated job submission.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRequest {
    /// Reaction model.
    pub model: ModelSpec,
    /// Algorithm (the step-resumable subset).
    pub algorithm: Algorithm,
    /// Square lattice side.
    pub side: u32,
    /// Master RNG seed.
    pub seed: u64,
    /// Whole algorithm steps.
    pub steps: u64,
    /// Checkpoint / observable-sampling interval.
    pub checkpoint_every: u64,
    /// Sharded-executor workers (1 = in-process session).
    pub shards: u32,
}

fn model_canonical(model: &ModelSpec) -> String {
    match model {
        // `{y}`/`{k}` use Rust's shortest-round-trip Display: one spelling
        // per f64 value.
        ModelSpec::Zgb { y, k } => format!("zgb {y} {k}"),
        ModelSpec::Kuzovkov => "kuzovkov".to_owned(),
    }
}

fn algorithm_canonical(algorithm: &Algorithm) -> String {
    match algorithm {
        Algorithm::Rsm => "rsm".to_owned(),
        Algorithm::RsmDiscretized => "rsm-discretized".to_owned(),
        Algorithm::Ndca { shuffled: false } => "ndca".to_owned(),
        Algorithm::Ndca { shuffled: true } => "ndca-shuffled".to_owned(),
        Algorithm::TPndca => "tpndca".to_owned(),
        Algorithm::Pndca {
            partition,
            selection,
        } => format!("pndca {partition} {selection}"),
        Algorithm::LPndca {
            partition,
            l,
            visit,
        } => format!("lpndca {partition} {l} {visit}"),
        other => unreachable!("{other:?} is rejected by JobRequest::parse"),
    }
}

impl JobRequest {
    /// Parse a submission body.
    ///
    /// # Errors
    ///
    /// Reports the first problem with its line number (server clients need
    /// a position to fix a rejected spec).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut model = None;
        let mut algorithm = None;
        let mut side: Option<u32> = None;
        let mut seed = 0u64;
        let mut steps: Option<u64> = None;
        let mut checkpoint_every: Option<u64> = None;
        let mut shards = 1u32;
        let mut seen: Vec<String> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let lineno = lineno + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(format!("line {lineno}: expected `key = value`"))?;
            let (key, value) = (key.trim(), value.trim());
            if seen.iter().any(|k| k == key) {
                return Err(format!("line {lineno}: duplicate key `{key}`"));
            }
            seen.push(key.to_owned());
            let err = |e: String| format!("line {lineno}: {e}");
            match key {
                "model" => model = Some(ModelSpec::parse(value).map_err(err)?),
                "algorithm" => match parse_algorithm(value).map_err(err)? {
                    // A submission has no splitting keys to canonicalise.
                    Algorithm::Fskmc { .. } => {
                        return Err(err("algorithm fskmc is not served".to_owned()))
                    }
                    alg => algorithm = Some(alg),
                },
                "side" => side = Some(value.parse().map_err(|e| err(format!("side: {e}")))?),
                "seed" => seed = value.parse().map_err(|e| err(format!("seed: {e}")))?,
                "steps" => steps = Some(value.parse().map_err(|e| err(format!("steps: {e}")))?),
                "checkpoint_every" => {
                    checkpoint_every = Some(
                        value
                            .parse()
                            .map_err(|e| err(format!("checkpoint_every: {e}")))?,
                    )
                }
                "shards" => shards = value.parse().map_err(|e| err(format!("shards: {e}")))?,
                other => return Err(err(format!("unknown key `{other}`"))),
            }
        }
        let steps = steps.ok_or("missing steps")?;
        let req = JobRequest {
            model: model.ok_or("missing model")?,
            algorithm: algorithm.ok_or("missing algorithm")?,
            side: side.ok_or("missing side")?,
            seed,
            steps,
            // The engine's default grid; resolved here so a spelled-out
            // default and an omitted one canonicalise identically.
            checkpoint_every: checkpoint_every.unwrap_or((steps / 10).max(1)),
            shards,
        };
        req.to_job_spec("probe").validate()?;
        Ok(req)
    }

    /// The canonical rendering: sorted keys, one spelling per value, every
    /// default resolved. Equal canonical text ⇔ same cache entry.
    pub fn canonical_text(&self) -> String {
        format!(
            "algorithm = {}\ncheckpoint_every = {}\nmodel = {}\nseed = {}\nshards = {}\nside = {}\nsteps = {}\n",
            algorithm_canonical(&self.algorithm),
            self.checkpoint_every,
            model_canonical(&self.model),
            self.seed,
            self.shards,
            self.side,
            self.steps,
        )
    }

    /// Content address: SHA-256 of the canonical text, lowercase hex.
    pub fn cache_key(&self) -> String {
        sha256_hex(self.canonical_text().as_bytes())
    }

    /// Materialise the engine job spec this request describes.
    pub fn to_job_spec(&self, name: &str) -> JobSpec {
        let mut spec = JobSpec::new(
            name,
            self.model.clone(),
            self.algorithm.clone(),
            self.side,
            self.seed,
            self.steps,
        );
        spec.checkpoint_every = self.checkpoint_every;
        spec.shards = self.shards;
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = "
model = zgb 0.51 5
algorithm = pndca five random-order
side = 20
seed = 7
steps = 200
checkpoint_every = 50
";

    #[test]
    fn parses_and_canonicalises() {
        let req = JobRequest::parse(BODY).expect("parse");
        assert_eq!(req.side, 20);
        assert_eq!(req.seed, 7);
        assert_eq!(
            req.canonical_text(),
            "algorithm = pndca five random-order\ncheckpoint_every = 50\nmodel = zgb 0.51 5\nseed = 7\nshards = 1\nside = 20\nsteps = 200\n"
        );
        assert_eq!(req.cache_key().len(), 64);
    }

    #[test]
    fn semantically_identical_specs_share_a_key() {
        let base = JobRequest::parse(BODY).expect("parse");
        for variant in [
            // Reordered keys, noise whitespace, comments.
            "steps=200\nseed = 7\n# hi\nside =20\ncheckpoint_every= 50\nalgorithm = pndca five random-order\nmodel = zgb 0.51 5",
            // Different float spelling of the same value.
            "model = zgb 0.510 5.0\nalgorithm = pndca five random-order\nside = 20\nseed = 7\nsteps = 200\ncheckpoint_every = 50",
            // Default shards spelled out.
            "shards = 1\nmodel = zgb 0.51 5\nalgorithm = pndca five random-order\nside = 20\nseed = 7\nsteps = 200\ncheckpoint_every = 50",
        ] {
            let req = JobRequest::parse(variant).expect(variant);
            assert_eq!(req.cache_key(), base.cache_key(), "{variant}");
        }
        // Omitted checkpoint_every resolves to the default grid — same key
        // as the default spelled out.
        let defaulted =
            JobRequest::parse("model = kuzovkov\nalgorithm = ndca\nside = 30\nsteps = 40")
                .expect("parse");
        let spelled = JobRequest::parse(
            "model = kuzovkov\nalgorithm = ndca\nside = 30\nsteps = 40\ncheckpoint_every = 4",
        )
        .expect("parse");
        assert_eq!(defaulted.cache_key(), spelled.cache_key());
    }

    #[test]
    fn differing_fields_change_the_key() {
        let base = JobRequest::parse(BODY).expect("parse");
        for (variant, what) in [
            (BODY.replace("seed = 7", "seed = 8"), "seed"),
            (BODY.replace("steps = 200", "steps = 201"), "steps"),
            (BODY.replace("side = 20", "side = 40"), "side"),
            (
                BODY.replace("checkpoint_every = 50", "checkpoint_every = 25"),
                "checkpoint grid",
            ),
            (BODY.replace("zgb 0.51 5", "zgb 0.52 5"), "model params"),
            (
                BODY.replace("pndca five random-order", "pndca five in-order"),
                "selection",
            ),
        ] {
            let req = JobRequest::parse(&variant).expect(&variant);
            assert_ne!(req.cache_key(), base.cache_key(), "{what} must change key");
        }
    }

    #[test]
    fn rejects_bad_submissions_with_line_numbers() {
        for (body, needle) in [
            ("model = zgb 0.5 5", "missing steps"),
            ("steps = 5\nside = 10\nalgorithm = rsm", "missing model"),
            ("model = warp\nsteps = 5", "line 1: unknown model"),
            (
                "model = kuzovkov\nalgorithm = bogus\nside = 10\nsteps = 5",
                "line 2: unknown algorithm",
            ),
            (
                "model = kuzovkov\nalgorithm = rsm\nside = 10\nsteps = 5\nside = 11",
                "line 5: duplicate key",
            ),
            (
                "model = kuzovkov\nalgorithm = rsm\nside = 10\nsteps = 5\nfrobnicate = 1",
                "line 5: unknown key",
            ),
            (
                "model = kuzovkov\nalgorithm = rsm\nside
= 10\nsteps = 5",
                "line 3: expected `key = value`",
            ),
            (
                "model = kuzovkov\nalgorithm = rsm\nside = 0\nsteps = 5",
                "side must be positive",
            ),
            (
                "model = kuzovkov\nalgorithm = ndca\nside = 10\nsteps = 5\nshards = 4",
                "requires a pndca algorithm",
            ),
        ] {
            let err = JobRequest::parse(body).expect_err(body);
            assert!(err.contains(needle), "{body:?}: {err:?} missing {needle:?}");
        }
    }

    #[test]
    fn canonical_text_reparses_to_the_same_request() {
        let req = JobRequest::parse(BODY).expect("parse");
        let back = JobRequest::parse(&req.canonical_text()).expect("reparse");
        assert_eq!(back, req);
        assert_eq!(back.cache_key(), req.cache_key());
    }
}

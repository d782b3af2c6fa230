//! Pause and resume for cluster simulations, by deterministic replay.
//!
//! A cluster run is a pure function of its configuration: the scenario
//! and executor seeds fix every RNG draw, and the clock-merge protocol
//! fixes the order of every event. So a [`ClusterSnapshot`] does not
//! carry the fleet's queues, KV pools or RNG words. It records *where*
//! the run paused — the `stop_s` bound whose merge point it is — plus a
//! 64-bit digest of the fleet state there. Resuming rebuilds the fleet,
//! replays the run from t = 0 to the first merge point whose next event
//! lies at or past that bound, compares the digest, and carries on in
//! the same process. The final [`crate::ClusterReport`] therefore
//! equals the uninterrupted run's report, field for field — asserted by
//! the integration tests for every shipped router.
//!
//! # What the digest covers
//!
//! `fleet_digest` folds, with 64-bit FNV-1a: per replica its clock
//! bits, stage and completion counts, reserved KV and token-gap digest
//! count and sum bits; the arrival stream's drawn count and both RNG
//! states; the router's `export_state` words; and each executor's
//! `export_batch` checkpoint (decode groups, pending joins, RNG). A
//! resume on a different scenario, seed, router, policy or executor
//! build almost surely lands on a different digest and is rejected
//! instead of silently diverging. The replica count and whether a
//! fault plan, autoscale policy or disaggregation plan is attached are
//! stored as such, so those mismatches are named in the error.
//!
//! # Serialization
//!
//! [`ClusterSnapshot::to_json`] writes a fixed-size JSON document
//! (schema id `duplex/cluster-snapshot/v6`, well under 512 bytes for
//! any fleet) that [`ClusterSnapshot::from_json`] parses back. The
//! bound is the quoted decimal of its IEEE-754 bits and the digest a
//! quoted decimal `u64`, so both round-trip exactly. Documents of the
//! retired state-format schemas (v1–v5) are rejected with a message to
//! re-take the snapshot.

use crate::json::{self, JsonValue};
use crate::router::Router;
use crate::scenario::{ReplicaSim, ScenarioStream};
use crate::scheduler::StageExecutor;

/// A paused cluster run: the bound it paused at and a digest of the
/// fleet state at that merge point. Resume it in-process via
/// `crate::ClusterSimulation::resume`, or across processes through
/// [`to_json`](Self::to_json) / [`from_json`](Self::from_json).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// The `stop_s` bound whose merge point the run paused at.
    taken_at_s: f64,
    replicas: usize,
    fault: bool,
    autoscale: bool,
    disagg: bool,
    /// [`fleet_digest`] at the pause.
    digest: u64,
}

/// The schema id written by [`ClusterSnapshot::to_json`].
const SCHEMA: &str = "duplex/cluster-snapshot/v6";
/// Prefix shared by every version of the schema id.
const SCHEMA_FAMILY: &str = "duplex/cluster-snapshot/";

impl ClusterSnapshot {
    /// A snapshot of a run paused at `taken_at_s`; the flags say
    /// whether a fault plan, autoscale policy and disaggregation plan
    /// are attached.
    pub(crate) fn new(
        taken_at_s: f64,
        replicas: usize,
        (fault, autoscale, disagg): (bool, bool, bool),
        digest: u64,
    ) -> Self {
        Self {
            taken_at_s,
            replicas,
            fault,
            autoscale,
            disagg,
            digest,
        }
    }

    /// The virtual-time bound the run paused at.
    pub fn taken_at_s(&self) -> f64 {
        self.taken_at_s
    }

    /// Number of replicas in the paused fleet.
    pub fn replica_count(&self) -> usize {
        self.replicas
    }

    /// The fleet digest at the pause (see [`fleet_digest`]).
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// Reject a snapshot whose fleet shape differs from the resuming
    /// cluster's, naming the differing part.
    pub(crate) fn check_shape(
        &self,
        replicas: usize,
        fault: bool,
        autoscale: bool,
        disagg: bool,
    ) -> Result<(), String> {
        if self.replicas != replicas {
            return Err(format!(
                "snapshot has {} replicas, the cluster has {replicas}",
                self.replicas
            ));
        }
        for (name, snap, cluster) in [
            ("fault plan", self.fault, fault),
            ("autoscale policy", self.autoscale, autoscale),
            ("disagg plan", self.disagg, disagg),
        ] {
            if snap != cluster {
                let (with, without) = if snap {
                    ("snapshot", "cluster")
                } else {
                    ("cluster", "snapshot")
                };
                return Err(format!(
                    "the {with} has a {name} but the {without} has none"
                ));
            }
        }
        Ok(())
    }

    /// Serialize to the `duplex/cluster-snapshot/v6` JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"{SCHEMA}\",\"taken_at_s\":\"{}\",\"replicas\":{},\
             \"fault\":{},\"autoscale\":{},\"disagg\":{},\"digest\":\"{}\"}}",
            self.taken_at_s.to_bits(),
            self.replicas,
            self.fault,
            self.autoscale,
            self.disagg,
            self.digest
        )
    }

    /// Parse a document produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field when the text is
    /// not valid JSON, the schema id is wrong (a retired v1–v5 id says
    /// to re-take the snapshot), or a field is missing or mistyped.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field `schema`")?;
        if schema != SCHEMA {
            return Err(if schema.starts_with(SCHEMA_FAMILY) {
                format!(
                    "snapshot schema {schema:?} is a retired state-format snapshot and \
                     cannot be resumed; re-take it as {SCHEMA:?}"
                )
            } else {
                format!("unsupported snapshot schema {schema:?} (expected {SCHEMA:?})")
            });
        }
        let word = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or(format!("missing or non-integer string field `{key}`"))
        };
        let flag = |key: &str| match v.get(key) {
            Some(&JsonValue::Bool(b)) => Ok(b),
            _ => Err(format!("missing boolean field `{key}`")),
        };
        let replicas = v
            .get("replicas")
            .and_then(JsonValue::as_f64)
            .filter(|n| n.fract() == 0.0 && (1.0..=1e9).contains(n))
            .ok_or("missing or non-integer field `replicas`")?;
        Ok(Self {
            taken_at_s: f64::from_bits(word("taken_at_s")?),
            replicas: replicas as usize,
            fault: flag("fault")?,
            autoscale: flag("autoscale")?,
            disagg: flag("disagg")?,
            digest: word("digest")?,
        })
    }
}

/// 64-bit FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }
}

/// The fleet digest a snapshot records and a resume verifies: see the
/// module docs for what it covers. Only meaningful at a merge point.
pub(crate) fn fleet_digest<E: StageExecutor>(
    replicas: &[ReplicaSim],
    stream: &ScenarioStream,
    router: &dyn Router,
    executors: &[E],
) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for r in replicas {
        h.words(&r.digest_words());
    }
    h.words(&stream.digest_words());
    h.words(&router.export_state());
    for e in executors {
        match e.export_batch() {
            None => h.word(0),
            Some(batch) => {
                h.word(1);
                let groups: Vec<u64> = batch
                    .decode_groups
                    .iter()
                    .flat_map(|&(ctx, reqs)| [ctx, reqs])
                    .collect();
                h.words(&groups);
                h.words(&batch.pending_joins);
                h.words(&batch.rng);
            }
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterSnapshot {
        // A bound that is not representable in decimal and a digest
        // using all 64 bits.
        ClusterSnapshot::new(0.1 + 0.2, 4, (true, false, true), u64::MAX - 6)
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = sample();
        let text = snap.to_json();
        assert!(text.len() < 512, "{} bytes", text.len());
        let back = ClusterSnapshot::from_json(&text).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.taken_at_s().to_bits(), (0.1 + 0.2_f64).to_bits());
        assert_eq!(back.digest(), u64::MAX - 6);
        // The largest fleet and the widest bound stay under 512 bytes.
        let widest = ClusterSnapshot::new(-f64::MAX, 1_000_000_000, (true, true, true), u64::MAX);
        assert!(widest.to_json().len() < 512);
    }

    #[test]
    fn from_json_rejects_other_schemas_and_garbage() {
        assert!(ClusterSnapshot::from_json("{}").is_err());
        assert!(ClusterSnapshot::from_json("not json").is_err());
        let wrong = r#"{"schema": "duplex-bench/cluster/v1"}"#;
        let err = ClusterSnapshot::from_json(wrong).expect_err("wrong schema");
        assert!(err.contains("schema"), "{err}");
        assert!(err.contains(SCHEMA), "names the expected schema: {err}");
    }

    #[test]
    fn a_v5_state_snapshot_must_be_re_taken() {
        let v5 = r#"{"schema": "duplex/cluster-snapshot/v5", "taken_at_s": "0",
                     "router": [], "stream": {}, "replicas": []}"#;
        let err = ClusterSnapshot::from_json(v5).expect_err("v5 rejected");
        assert!(err.contains("duplex/cluster-snapshot/v5"), "{err}");
        assert!(err.contains(SCHEMA), "{err}");
        assert!(err.contains("re-take"), "tells the user what to do: {err}");
    }

    #[test]
    fn missing_fields_name_the_culprit() {
        let text = sample().to_json().replace("\"taken_at_s\"", "\"taken_at\"");
        let err = ClusterSnapshot::from_json(&text).expect_err("missing field");
        assert!(err.contains("taken_at_s"), "{err}");
        let text = sample()
            .to_json()
            .replace("\"fault\":true", "\"fault\":\"yes\"");
        let err = ClusterSnapshot::from_json(&text).expect_err("mistyped flag");
        assert!(err.contains("fault"), "{err}");
    }

    #[test]
    fn a_faultless_snapshot_round_trips_with_null_fault_state() {
        let snap = ClusterSnapshot::new(2.5, 1, (false, false, false), 7);
        let back = ClusterSnapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(back, snap);
        assert!(back.check_shape(1, false, false, false).is_ok());
    }

    #[test]
    fn shape_mismatches_name_the_differing_part() {
        let snap = sample();
        let err = snap.check_shape(3, true, false, true).expect_err("count");
        assert!(err.contains("replicas"), "{err}");
        let err = snap.check_shape(4, false, false, true).expect_err("fault");
        assert!(err.contains("fault"), "{err}");
        let err = snap
            .check_shape(4, true, true, true)
            .expect_err("autoscale");
        assert!(err.contains("autoscale"), "{err}");
        let err = snap.check_shape(4, true, false, false).expect_err("disagg");
        assert!(err.contains("disagg"), "{err}");
        assert!(snap.check_shape(4, true, false, true).is_ok());
    }
}

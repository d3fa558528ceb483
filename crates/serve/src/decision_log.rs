//! The decision log's entry table and its byte encoder.
//!
//! Every line of a serving run's decision log is one [`Entry`], encoded
//! by [`Entry::encode`]. The encoder writes decimal integers and 16-digit
//! lowercase hex float bit patterns by hand, so the per-request log path
//! runs no `core::fmt`. Its bytes are the audit trail the golden
//! `.decision.hash` files pin; DESIGN §5f lists them, one row per kind.
//! An entry a fleet shard pushes ends in ` shard=N`; router and
//! shard-fault entries and every entry of a one-shard run carry no
//! suffix.

use crate::adapt::RefuseReason;

/// The serving stage a shed or failed request stopped in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LogStage {
    Queue,
    Predict,
    Decide,
}

impl LogStage {
    fn as_str(self) -> &'static str {
        match self {
            LogStage::Queue => "queue",
            LogStage::Predict => "predict",
            LogStage::Decide => "decide",
        }
    }
}

/// One decision-log line (see the module docs for its bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Entry {
    /// A completed request: served tier, EA, decided and applied timeout
    /// indices, response time, and the promoted model version (0 = base).
    Ok {
        seq: u64,
        tier: u8,
        ea: f64,
        t: usize,
        applied: usize,
        resp: f64,
        version: u64,
    },
    ShedOverload {
        seq: u64,
    },
    ShedDeadline {
        seq: u64,
        stage: LogStage,
    },
    Failed {
        seq: u64,
        stage: LogStage,
    },
    Drained {
        seq: u64,
    },
    Reroute {
        seq: u64,
        from: u32,
        to: u32,
        hops: u32,
    },
    RouterShed {
        seq: u64,
        hops: u32,
    },
    ShardCrash {
        shard: u32,
        epoch: u64,
    },
    ShardRecover {
        shard: u32,
        epoch: u64,
    },
    ShardFlap {
        shard: u32,
        epoch: u64,
    },
    ShardStall {
        shard: u32,
        epoch: u64,
        dur: f64,
    },
    Drift {
        score: f64,
    },
    Retrain {
        version: u64,
        rows: usize,
    },
    RetrainFail {
        version: u64,
    },
    RetrainSlow {
        version: u64,
    },
    ShadowDone {
        version: u64,
        agree: u64,
        scored: u64,
    },
    Promote {
        version: u64,
    },
    PromoteRefused {
        version: u64,
        reason: RefuseReason,
    },
    GuardPass {
        version: u64,
    },
    Rollback {
        from: u64,
        to: u64,
    },
}

/// Append `v` in decimal.
fn dec(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Append `x`'s bit pattern as 16 lowercase hex digits.
fn hex(out: &mut Vec<u8>, x: f64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let bits = x.to_bits();
    for shift in (0..16).rev() {
        out.push(DIGITS[((bits >> (shift * 4)) & 0xf) as usize]);
    }
}

/// `label` then `v` in decimal.
fn field(out: &mut Vec<u8>, label: &str, v: u64) {
    out.extend_from_slice(label.as_bytes());
    dec(out, v);
}

impl Entry {
    /// Append this entry's bytes to `out`, with ` shard=N` when a fleet
    /// shard pushed it. No trailing newline.
    pub(crate) fn encode(&self, shard: Option<u32>, out: &mut Vec<u8>) {
        match *self {
            Entry::Ok {
                seq,
                tier,
                ea,
                t,
                applied,
                resp,
                version,
            } => {
                field(out, "seq=", seq);
                field(out, " disp=ok tier=", u64::from(tier));
                out.extend_from_slice(b" ea=");
                hex(out, ea);
                field(out, " t=", t as u64);
                field(out, " applied=", applied as u64);
                out.extend_from_slice(b" resp=");
                hex(out, resp);
                if version > 0 {
                    field(out, " v=", version);
                }
            }
            Entry::ShedOverload { seq } => {
                field(out, "seq=", seq);
                out.extend_from_slice(b" disp=shed_overload");
            }
            Entry::ShedDeadline { seq, stage } => {
                field(out, "seq=", seq);
                out.extend_from_slice(b" disp=shed_deadline stage=");
                out.extend_from_slice(stage.as_str().as_bytes());
            }
            Entry::Failed { seq, stage } => {
                field(out, "seq=", seq);
                out.extend_from_slice(b" disp=failed stage=");
                out.extend_from_slice(stage.as_str().as_bytes());
            }
            Entry::Drained { seq } => {
                field(out, "seq=", seq);
                out.extend_from_slice(b" disp=drained");
            }
            Entry::Reroute {
                seq,
                from,
                to,
                hops,
            } => {
                field(out, "seq=", seq);
                field(out, " disp=reroute from=", u64::from(from));
                field(out, " to=", u64::from(to));
                field(out, " hops=", u64::from(hops));
            }
            Entry::RouterShed { seq, hops } => {
                field(out, "seq=", seq);
                field(out, " disp=router_shed hops=", u64::from(hops));
            }
            Entry::ShardCrash { shard, epoch } => {
                field(out, "event=shard_crash shard=", u64::from(shard));
                field(out, " epoch=", epoch);
            }
            Entry::ShardRecover { shard, epoch } => {
                field(out, "event=shard_recover shard=", u64::from(shard));
                field(out, " epoch=", epoch);
            }
            Entry::ShardFlap { shard, epoch } => {
                field(out, "event=shard_flap shard=", u64::from(shard));
                field(out, " epoch=", epoch);
            }
            Entry::ShardStall { shard, epoch, dur } => {
                field(out, "event=shard_stall shard=", u64::from(shard));
                field(out, " epoch=", epoch);
                out.extend_from_slice(b" dur=");
                hex(out, dur);
            }
            Entry::Drift { score } => {
                out.extend_from_slice(b"event=drift score=");
                hex(out, score);
            }
            Entry::Retrain { version, rows } => {
                field(out, "event=retrain version=", version);
                field(out, " rows=", rows as u64);
                out.extend_from_slice(b" outcome=ok");
            }
            Entry::RetrainFail { version } => {
                field(out, "event=retrain version=", version);
                out.extend_from_slice(b" outcome=fail");
            }
            Entry::RetrainSlow { version } => {
                field(out, "event=retrain version=", version);
                out.extend_from_slice(b" outcome=slow");
            }
            Entry::ShadowDone {
                version,
                agree,
                scored,
            } => {
                field(out, "event=shadow_done version=", version);
                field(out, " agree=", agree);
                field(out, " scored=", scored);
            }
            Entry::Promote { version } => field(out, "event=promote version=", version),
            Entry::PromoteRefused { version, reason } => {
                field(out, "event=promote_refused version=", version);
                out.extend_from_slice(b" reason=");
                out.extend_from_slice(reason.as_str().as_bytes());
            }
            Entry::GuardPass { version } => field(out, "event=guard_pass version=", version),
            Entry::Rollback { from, to } => {
                field(out, "event=rollback from=", from);
                field(out, " to=", to);
            }
        }
        if let Some(id) = shard {
            field(out, " shard=", u64::from(id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit patterns the encoder must print unchanged.
    const NEG_ZERO: f64 = -0.0;
    const SUBNORMAL: f64 = f64::from_bits(1);

    /// One value of every entry kind plus the edge values, each with the
    /// bytes it had when every line was written through `format_args!`.
    fn table() -> Vec<(Entry, &'static str)> {
        use Entry::*;
        vec![
            (Ok { seq: 0, tier: 0, ea: 0.5, t: 2, applied: 1, resp: 0.0123, version: 0 }, "seq=0 disp=ok tier=0 ea=3fe0000000000000 t=2 applied=1 resp=3f8930be0ded288d"),
            (Ok { seq: u64::MAX, tier: 2, ea: NEG_ZERO, t: 4, applied: 4, resp: f64::NAN, version: 3 }, "seq=18446744073709551615 disp=ok tier=2 ea=8000000000000000 t=4 applied=4 resp=7ff8000000000000 v=3"),
            (Ok { seq: 12345, tier: 1, ea: f64::NAN, t: 0, applied: 0, resp: SUBNORMAL, version: u64::MAX }, "seq=12345 disp=ok tier=1 ea=7ff8000000000000 t=0 applied=0 resp=0000000000000001 v=18446744073709551615"),
            (Ok { seq: 9, tier: 0, ea: SUBNORMAL, t: 3, applied: 2, resp: NEG_ZERO, version: 1 }, "seq=9 disp=ok tier=0 ea=0000000000000001 t=3 applied=2 resp=8000000000000000 v=1"),
            (ShedOverload { seq: 0 }, "seq=0 disp=shed_overload"),
            (ShedOverload { seq: u64::MAX }, "seq=18446744073709551615 disp=shed_overload"),
            (ShedDeadline { seq: 42, stage: LogStage::Queue }, "seq=42 disp=shed_deadline stage=queue"),
            (ShedDeadline { seq: u64::MAX, stage: LogStage::Predict }, "seq=18446744073709551615 disp=shed_deadline stage=predict"),
            (Failed { seq: 0, stage: LogStage::Predict }, "seq=0 disp=failed stage=predict"),
            (Failed { seq: 77, stage: LogStage::Decide }, "seq=77 disp=failed stage=decide"),
            (Drained { seq: 1_000_000 }, "seq=1000000 disp=drained"),
            (Reroute { seq: u64::MAX, from: 0, to: 7, hops: 2 }, "seq=18446744073709551615 disp=reroute from=0 to=7 hops=2"),
            (Reroute { seq: 0, from: 1023, to: 0, hops: u32::MAX }, "seq=0 disp=reroute from=1023 to=0 hops=4294967295"),
            (RouterShed { seq: 5, hops: 0 }, "seq=5 disp=router_shed hops=0"),
            (RouterShed { seq: u64::MAX, hops: 3 }, "seq=18446744073709551615 disp=router_shed hops=3"),
            (ShardCrash { shard: 3, epoch: 0 }, "event=shard_crash shard=3 epoch=0"),
            (ShardRecover { shard: 0, epoch: u64::MAX }, "event=shard_recover shard=0 epoch=18446744073709551615"),
            (ShardFlap { shard: 1023, epoch: 17 }, "event=shard_flap shard=1023 epoch=17"),
            (ShardStall { shard: 2, epoch: 8, dur: 0.75 }, "event=shard_stall shard=2 epoch=8 dur=3fe8000000000000"),
            (ShardStall { shard: 2, epoch: 8, dur: NEG_ZERO }, "event=shard_stall shard=2 epoch=8 dur=8000000000000000"),
            (ShardStall { shard: 2, epoch: 8, dur: f64::NAN }, "event=shard_stall shard=2 epoch=8 dur=7ff8000000000000"),
            (ShardStall { shard: 2, epoch: 8, dur: SUBNORMAL }, "event=shard_stall shard=2 epoch=8 dur=0000000000000001"),
            (Drift { score: 3.5 }, "event=drift score=400c000000000000"),
            (Drift { score: NEG_ZERO }, "event=drift score=8000000000000000"),
            (Drift { score: f64::NAN }, "event=drift score=7ff8000000000000"),
            (Drift { score: SUBNORMAL }, "event=drift score=0000000000000001"),
            (Retrain { version: 1, rows: 512 }, "event=retrain version=1 rows=512 outcome=ok"),
            (Retrain { version: u64::MAX, rows: 0 }, "event=retrain version=18446744073709551615 rows=0 outcome=ok"),
            (RetrainFail { version: 2 }, "event=retrain version=2 outcome=fail"),
            (RetrainSlow { version: 3 }, "event=retrain version=3 outcome=slow"),
            (ShadowDone { version: 4, agree: 180, scored: 200 }, "event=shadow_done version=4 agree=180 scored=200"),
            (Promote { version: 5 }, "event=promote version=5"),
            (PromoteRefused { version: 6, reason: RefuseReason::Draining }, "event=promote_refused version=6 reason=draining"),
            (PromoteRefused { version: 6, reason: RefuseReason::BreakerOpen }, "event=promote_refused version=6 reason=breaker_open"),
            (PromoteRefused { version: 6, reason: RefuseReason::Agreement }, "event=promote_refused version=6 reason=agreement"),
            (GuardPass { version: 7 }, "event=guard_pass version=7"),
            (Rollback { from: 8, to: 0 }, "event=rollback from=8 to=0"),
        ]
    }

    #[test]
    fn every_entry_kind_encodes_its_pinned_bytes() {
        for (entry, want) in table() {
            for (shard, suffix) in [(None, ""), (Some(0), " shard=0"), (Some(7), " shard=7")] {
                let mut out = Vec::new();
                entry.encode(shard, &mut out);
                let got = String::from_utf8(out).expect("the encoder writes ASCII");
                assert_eq!(got, format!("{want}{suffix}"), "{entry:?} at {shard:?}");
            }
        }
    }
}

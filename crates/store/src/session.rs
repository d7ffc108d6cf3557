//! [`DurableSession`]: the wire client's persistence hook, durably.
//!
//! A [`DurableSession`] implements [`SessionStore`] so a
//! [`nonstrict_wire::WireClient`] journals every state transition —
//! manifest pin, per-unit watermark advance, class reset, negotiated
//! truncation, generation rollover, completion — as one small `NSJL`
//! append, and stores each accepted unit's bytes in the `NSUC` cache.
//! After a process kill, [`DurableSession::warm_start`] rebuilds the
//! session from the **longest verified prefix** the store can prove:
//!
//! 1. recover the journal (torn tail truncated, rot fails closed);
//! 2. replay records in order — a *gap* in a class's unit sequence
//!    (an acked-but-never-durable append, i.e. an fsync lie) ends that
//!    class's trusted prefix at the gap, because everything after it
//!    was journaled under assumptions the disk silently dropped;
//! 3. load the stored manifest, check its CRC32 against the journal's
//!    pin, decode it, and check its epoch — any disagreement means the
//!    pin and the manifest file can't both be right, so neither is:
//!    cold start;
//! 4. walk each class's prefix through
//!    [`UnitCache::load_verified`] against the pinned manifest's
//!    digests — the first entry that is missing, rotted, mis-named, or
//!    poisoned ends the warm prefix for that class (the tail will be
//!    refetched from the wire, never executed from disk).
//!
//! The replay is fail-closed at every layer, but never fail-*stuck*: a
//! broken store yields a cold start, and a cold start always converges,
//! because the wire protocol re-delivers from unit 0.

use std::sync::Arc;

use nonstrict_wire::client::{SessionStore, StoreFault, WarmClass, WarmSession};
use nonstrict_wire::crc32;
use nonstrict_wire::manifest::UnitManifest;

use crate::cache::{CacheEntry, UnitCache};
use crate::log::JournalLog;
use crate::vfs::Vfs;
use crate::StoreError;

/// File name the session journal lives under.
pub const JOURNAL_NAME: &str = "session.nsjl";

/// File name the pinned manifest's bytes live under.
pub const MANIFEST_NAME: &str = "manifest.nsum";

const TAG_PIN: u8 = 0x01;
const TAG_UNIT: u8 = 0x02;
const TAG_RESET_CLASS: u8 = 0x03;
const TAG_TRUNCATE: u8 = 0x04;
const TAG_RESET_ALL: u8 = 0x05;
const TAG_COMPLETE: u8 = 0x06;

/// One journal record, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Record {
    Pin {
        generation: u32,
        manifest_epoch: u64,
        manifest_crc: u32,
    },
    Unit {
        class: u32,
        unit: u32,
        epoch: u32,
        units: u32,
        crc: u32,
        size: u32,
    },
    ResetClass {
        class: u32,
        epoch: u32,
        units: u32,
    },
    Truncate {
        class: u32,
        delivered: u32,
    },
    ResetAll,
    Complete,
}

impl Record {
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(25);
        match self {
            Record::Pin {
                generation,
                manifest_epoch,
                manifest_crc,
            } => {
                buf.push(TAG_PIN);
                buf.extend_from_slice(&generation.to_le_bytes());
                buf.extend_from_slice(&manifest_epoch.to_le_bytes());
                buf.extend_from_slice(&manifest_crc.to_le_bytes());
            }
            Record::Unit {
                class,
                unit,
                epoch,
                units,
                crc,
                size,
            } => {
                buf.push(TAG_UNIT);
                buf.extend_from_slice(&class.to_le_bytes());
                buf.extend_from_slice(&unit.to_le_bytes());
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&units.to_le_bytes());
                buf.extend_from_slice(&crc.to_le_bytes());
                buf.extend_from_slice(&size.to_le_bytes());
            }
            Record::ResetClass {
                class,
                epoch,
                units,
            } => {
                buf.push(TAG_RESET_CLASS);
                buf.extend_from_slice(&class.to_le_bytes());
                buf.extend_from_slice(&epoch.to_le_bytes());
                buf.extend_from_slice(&units.to_le_bytes());
            }
            Record::Truncate { class, delivered } => {
                buf.push(TAG_TRUNCATE);
                buf.extend_from_slice(&class.to_le_bytes());
                buf.extend_from_slice(&delivered.to_le_bytes());
            }
            Record::ResetAll => buf.push(TAG_RESET_ALL),
            Record::Complete => buf.push(TAG_COMPLETE),
        }
        buf
    }

    fn decode(bytes: &[u8]) -> Result<Record, StoreError> {
        let what = "NSJL session record";
        let need = |n: usize| -> Result<(), StoreError> {
            if bytes.len() == n {
                Ok(())
            } else {
                Err(StoreError::Malformed {
                    what,
                    why: "record length does not match its tag",
                })
            }
        };
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("len"));
        match bytes.first() {
            Some(&TAG_PIN) => {
                need(17)?;
                Ok(Record::Pin {
                    generation: u32_at(1),
                    manifest_epoch: u64::from_le_bytes(bytes[5..13].try_into().expect("len")),
                    manifest_crc: u32_at(13),
                })
            }
            Some(&TAG_UNIT) => {
                need(25)?;
                Ok(Record::Unit {
                    class: u32_at(1),
                    unit: u32_at(5),
                    epoch: u32_at(9),
                    units: u32_at(13),
                    crc: u32_at(17),
                    size: u32_at(21),
                })
            }
            Some(&TAG_RESET_CLASS) => {
                need(13)?;
                Ok(Record::ResetClass {
                    class: u32_at(1),
                    epoch: u32_at(5),
                    units: u32_at(9),
                })
            }
            Some(&TAG_TRUNCATE) => {
                need(9)?;
                Ok(Record::Truncate {
                    class: u32_at(1),
                    delivered: u32_at(5),
                })
            }
            Some(&TAG_RESET_ALL) => {
                need(1)?;
                Ok(Record::ResetAll)
            }
            Some(&TAG_COMPLETE) => {
                need(1)?;
                Ok(Record::Complete)
            }
            Some(_) => Err(StoreError::Malformed {
                what,
                why: "unknown record tag",
            }),
            None => Err(StoreError::Malformed {
                what,
                why: "empty record",
            }),
        }
    }
}

/// What a typed recovery found on disk — the testable face of
/// [`DurableSession::warm_start`], with the fail-closed decisions made
/// visible instead of collapsed into `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredSession {
    /// The pinned restructure generation.
    pub generation: u32,
    /// The pinned manifest's encoded bytes (CRC-checked against the
    /// journal pin and structurally decoded).
    pub manifest: Vec<u8>,
    /// Per-class verified warm prefixes.
    pub classes: Vec<WarmClass>,
    /// Bytes the journal recovery truncated as a torn tail.
    pub torn_bytes: u64,
    /// Unit records dropped during replay or cache verification:
    /// sequence gaps (fsync lies), CRC disagreements between journal
    /// and cache, and missing/rotted/poisoned cache entries.
    pub dropped_units: u64,
    /// Whether a Complete record survived.
    pub completed: bool,
}

/// Journal replay output: `(pin, classes, dropped, completed)` where
/// `pin` is `(generation, manifest_epoch, manifest_crc)`.
type Replayed = (Option<(u32, u64, u32)>, Vec<ReplayClass>, u64, bool);

#[derive(Debug, Clone, Default)]
struct ReplayClass {
    epoch: u32,
    units: u32,
    crcs: Vec<u32>,
    sizes: Vec<u32>,
    /// Set when a sequence gap ended this class's trusted prefix; no
    /// later record for the class may extend it.
    gapped: bool,
}

/// The durable session store: a [`JournalLog`] for watermarks and a
/// [`UnitCache`] for bytes, over one [`Vfs`].
pub struct DurableSession {
    log: JournalLog,
    cache: UnitCache,
    vfs: Arc<dyn Vfs>,
    /// Manifest epoch of the current pin; cache entries are sealed
    /// under it. Set by `on_pin` and by warm-start replay.
    pin_epoch: Option<u64>,
}

impl DurableSession {
    /// A session persisted in `vfs`.
    #[must_use]
    pub fn new(vfs: Arc<dyn Vfs>) -> DurableSession {
        DurableSession::split(vfs.clone(), vfs)
    }

    /// A session with the journal (and manifest) in one store and the
    /// unit cache in another — `--journal-dir` vs `--cache-dir`.
    #[must_use]
    pub fn split(journal_vfs: Arc<dyn Vfs>, cache_vfs: Arc<dyn Vfs>) -> DurableSession {
        DurableSession {
            log: JournalLog::new(journal_vfs.clone(), JOURNAL_NAME),
            cache: UnitCache::new(cache_vfs),
            vfs: journal_vfs,
            pin_epoch: None,
        }
    }

    fn append(&self, op: &'static str, record: &Record) -> Result<(), StoreFault> {
        self.log
            .append_record(&record.encode())
            .map_err(|e| StoreFault {
                op,
                detail: e.to_string(),
            })
    }

    /// Replays recovered journal records into per-class state.
    /// Returns `(pin, classes, dropped, completed)`.
    fn replay(records: &[Vec<u8>]) -> Result<Replayed, StoreError> {
        let mut pin: Option<(u32, u64, u32)> = None;
        let mut classes: Vec<ReplayClass> = Vec::new();
        let mut dropped: u64 = 0;
        let mut completed = false;
        for raw in records {
            match Record::decode(raw)? {
                Record::Pin {
                    generation,
                    manifest_epoch,
                    manifest_crc,
                } => {
                    pin = Some((generation, manifest_epoch, manifest_crc));
                }
                Record::Unit {
                    class,
                    unit,
                    epoch,
                    units,
                    crc,
                    size,
                } => {
                    let ci = class as usize;
                    if classes.len() <= ci {
                        classes.resize_with(ci + 1, ReplayClass::default);
                    }
                    let c = &mut classes[ci];
                    if c.gapped {
                        dropped += 1;
                        continue;
                    }
                    c.epoch = epoch;
                    c.units = units;
                    let delivered = c.crcs.len() as u32;
                    if unit > delivered {
                        // A record for a unit we never journaled the
                        // predecessor of: an earlier acked append was
                        // never durable. Everything from the gap on is
                        // untrusted for this class.
                        c.gapped = true;
                        dropped += 1;
                        continue;
                    }
                    // unit <= delivered: later records win (a
                    // re-delivery after truncation overwrites).
                    c.crcs.truncate(unit as usize);
                    c.sizes.truncate(unit as usize);
                    c.crcs.push(crc);
                    c.sizes.push(size);
                }
                Record::ResetClass {
                    class,
                    epoch,
                    units,
                } => {
                    let ci = class as usize;
                    if classes.len() <= ci {
                        classes.resize_with(ci + 1, ReplayClass::default);
                    }
                    classes[ci] = ReplayClass {
                        epoch,
                        units,
                        ..ReplayClass::default()
                    };
                }
                Record::Truncate { class, delivered } => {
                    let ci = class as usize;
                    if let Some(c) = classes.get_mut(ci) {
                        c.crcs.truncate(delivered as usize);
                        c.sizes.truncate(delivered as usize);
                    }
                }
                Record::ResetAll => {
                    pin = None;
                    classes.clear();
                    completed = false;
                }
                Record::Complete => completed = true,
            }
        }
        Ok((pin, classes, dropped, completed))
    }

    /// Typed recovery: everything [`warm_start`](SessionStore::warm_start)
    /// does, with the errors visible. `Ok(None)` means a clean cold
    /// start (no journal, or no pin survived); `Err` is an integrity
    /// failure a caller may want to distinguish (the trait impl maps
    /// both to a cold start).
    ///
    /// # Errors
    ///
    /// Typed [`StoreError`] for journal rot, malformed records, a
    /// manifest that fails its pin CRC ([`StoreError::ManifestMismatch`]),
    /// or a manifest that no longer decodes.
    pub fn recover_session(&mut self) -> Result<Option<RecoveredSession>, StoreError> {
        let recovered = self.log.recover()?;
        let (pin, replayed, mut dropped, completed) = Self::replay(&recovered.records)?;
        let Some((generation, manifest_epoch, manifest_crc)) = pin else {
            return Ok(None);
        };
        let manifest_bytes = self.vfs.read(MANIFEST_NAME)?;
        let got = crc32(&manifest_bytes);
        if got != manifest_crc {
            return Err(StoreError::ManifestMismatch {
                want: manifest_crc,
                got,
            });
        }
        let manifest =
            UnitManifest::decode(&manifest_bytes).map_err(|_| StoreError::Malformed {
                what: "stored manifest",
                why: "pinned manifest bytes no longer decode",
            })?;
        if manifest.epoch != manifest_epoch {
            return Err(StoreError::Malformed {
                what: "stored manifest",
                why: "manifest epoch disagrees with the journal pin",
            });
        }
        self.pin_epoch = Some(manifest_epoch);
        let mut classes = Vec::with_capacity(replayed.len());
        for (ci, c) in replayed.into_iter().enumerate() {
            let digests = manifest.unit_digests.get(ci);
            let mut warm = WarmClass {
                epoch: c.epoch,
                units: c.units,
                crcs: Vec::new(),
                sizes: Vec::new(),
                payloads: Vec::new(),
            };
            for (ui, (&crc, &size)) in c.crcs.iter().zip(&c.sizes).enumerate() {
                let class_id = u32::try_from(ci).expect("class index fits u32");
                let unit_id = u32::try_from(ui).expect("unit index fits u32");
                // A journaled unit the manifest has no digest for can't
                // be verified; it ends the prefix.
                let Some(&expect) = digests.and_then(|d| d.get(ui)) else {
                    dropped += u64::from(c.crcs.len() as u32 - unit_id);
                    break;
                };
                let payload =
                    match self
                        .cache
                        .load_verified(manifest_epoch, class_id, unit_id, expect)
                    {
                        Ok(p) => p,
                        Err(_) => {
                            // Missing, rotted, mis-named, or poisoned:
                            // the warm prefix ends here; the tail is
                            // refetched from the wire.
                            dropped += u64::from(c.crcs.len() as u32 - unit_id);
                            break;
                        }
                    };
                if crc32(&payload) != crc || payload.len() as u32 != size {
                    // Journal and cache disagree about what was
                    // accepted; trust neither past this point.
                    dropped += u64::from(c.crcs.len() as u32 - unit_id);
                    break;
                }
                warm.crcs.push(crc);
                warm.sizes.push(size);
                warm.payloads.push(payload);
            }
            classes.push(warm);
        }
        Ok(Some(RecoveredSession {
            generation,
            manifest: manifest_bytes,
            classes,
            torn_bytes: recovered.torn_bytes,
            dropped_units: dropped,
            completed,
        }))
    }
}

impl SessionStore for DurableSession {
    fn warm_start(&mut self) -> Option<WarmSession> {
        // Fail closed to a cold start on any integrity failure — and
        // scrub the broken state so the restarted session journals onto
        // a clean slate instead of appending after rot.
        match self.recover_session() {
            Ok(Some(r)) => Some(WarmSession {
                generation: r.generation,
                manifest: r.manifest,
                classes: r.classes,
            }),
            Ok(None) => None,
            Err(_) => {
                let _ = self.log.remove();
                let _ = self.vfs.remove(MANIFEST_NAME);
                let _ = self.cache.clear();
                self.pin_epoch = None;
                None
            }
        }
    }

    fn on_pin(&mut self, generation: u32, manifest: &[u8]) -> Result<(), StoreFault> {
        let fault = |detail: String| StoreFault {
            op: "on_pin",
            detail,
        };
        let decoded = UnitManifest::decode(manifest)
            .map_err(|e| fault(format!("manifest does not decode: {e:?}")))?;
        self.vfs
            .write_atomic(MANIFEST_NAME, manifest)
            .map_err(|e| fault(e.to_string()))?;
        self.append(
            "on_pin",
            &Record::Pin {
                generation,
                manifest_epoch: decoded.epoch,
                manifest_crc: crc32(manifest),
            },
        )?;
        self.pin_epoch = Some(decoded.epoch);
        Ok(())
    }

    fn on_unit(
        &mut self,
        class: u32,
        unit: u32,
        epoch: u32,
        units: u32,
        payload: &[u8],
    ) -> Result<(), StoreFault> {
        let Some(pin_epoch) = self.pin_epoch else {
            return Err(StoreFault {
                op: "on_unit",
                detail: "unit accepted before any manifest pin".to_owned(),
            });
        };
        let entry = CacheEntry::sealed(pin_epoch, class, unit, payload.to_vec());
        self.cache.put(&entry).map_err(|e| StoreFault {
            op: "on_unit",
            detail: e.to_string(),
        })?;
        // Bytes first, then the watermark: a crash between the two
        // leaves an orphan cache entry (harmless), never a watermark
        // that points at bytes that don't exist.
        self.append(
            "on_unit",
            &Record::Unit {
                class,
                unit,
                epoch,
                units,
                crc: crc32(payload),
                size: u32::try_from(payload.len()).unwrap_or(u32::MAX),
            },
        )
    }

    fn on_reset_class(&mut self, class: u32, epoch: u32, units: u32) -> Result<(), StoreFault> {
        self.append(
            "on_reset_class",
            &Record::ResetClass {
                class,
                epoch,
                units,
            },
        )
    }

    fn on_truncate(&mut self, class: u32, delivered: u32) -> Result<(), StoreFault> {
        self.append("on_truncate", &Record::Truncate { class, delivered })
    }

    fn on_reset_all(&mut self) -> Result<(), StoreFault> {
        self.append("on_reset_all", &Record::ResetAll)?;
        self.cache.clear().map_err(|e| StoreFault {
            op: "on_reset_all",
            detail: e.to_string(),
        })?;
        self.pin_epoch = None;
        Ok(())
    }

    fn on_complete(&mut self) -> Result<(), StoreFault> {
        self.append("on_complete", &Record::Complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultFs, FaultKnobs};

    fn payloads() -> Vec<Vec<Vec<u8>>> {
        vec![
            vec![b"c0u0".to_vec(), b"c0u1-longer".to_vec(), b"c0u2".to_vec()],
            vec![b"c1u0-prelude".to_vec(), b"c1u1".to_vec()],
        ]
    }

    fn manifest() -> UnitManifest {
        UnitManifest::from_payloads(&payloads(), 0xabcd_0001)
    }

    /// Streams the whole scripted session through a store; returns the
    /// number of mutating VFS ops it took.
    fn stream_all(fs: &Arc<FaultFs>) -> Result<u64, StoreFault> {
        let before = fs.ops();
        let mut s = DurableSession::new(fs.clone());
        s.on_pin(7, &manifest().encode())?;
        for (ci, class) in payloads().iter().enumerate() {
            let n = u32::try_from(class.len()).unwrap();
            for (ui, p) in class.iter().enumerate() {
                s.on_unit(ci as u32, ui as u32, 1, n, p)?;
            }
        }
        s.on_complete()?;
        Ok(fs.ops() - before)
    }

    #[test]
    fn full_session_round_trips_through_recovery() {
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(1)));
        stream_all(&fs).unwrap();
        let mut s = DurableSession::new(fs.clone());
        let r = s.recover_session().unwrap().unwrap();
        assert_eq!(r.generation, 7);
        assert!(r.completed);
        assert_eq!(r.torn_bytes, 0);
        assert_eq!(r.dropped_units, 0);
        assert_eq!(r.classes.len(), 2);
        for (ci, class) in payloads().iter().enumerate() {
            assert_eq!(r.classes[ci].payloads, *class);
            let crcs: Vec<u32> = class.iter().map(|p| crc32(p)).collect();
            assert_eq!(r.classes[ci].crcs, crcs);
        }
    }

    #[test]
    fn kill_at_every_op_recovers_a_verified_prefix() {
        let quiet = Arc::new(FaultFs::new(FaultKnobs::quiet(2)));
        let total = stream_all(&quiet).unwrap();
        let full = {
            let mut s = DurableSession::new(quiet.clone());
            s.recover_session().unwrap().unwrap()
        };
        for k in 1..=total {
            let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(1000 + k)));
            fs.set_kill_at(k);
            let died = stream_all(&fs).is_err();
            assert!(died, "kill at op {k} did not surface");
            fs.crash();
            let mut s = DurableSession::new(fs.clone());
            // Recovery may fail closed (e.g. manifest never made it);
            // what it must never do is hand back a wrong byte.
            if let Ok(Some(r)) = s.recover_session() {
                assert_eq!(r.generation, 7, "kill at op {k}");
                for (ci, warm) in r.classes.iter().enumerate() {
                    let want = &full.classes[ci];
                    let n = warm.payloads.len();
                    assert!(
                        n <= want.payloads.len()
                            && warm.payloads[..] == want.payloads[..n]
                            && warm.crcs[..] == want.crcs[..n],
                        "kill at op {k}: class {ci} prefix diverges"
                    );
                }
            }
        }
    }

    #[test]
    fn fsync_lie_on_a_unit_append_ends_the_prefix_at_the_gap() {
        // Find a seed where at least one unit append is acked but never
        // durable, then check the recovered prefix stops at the gap.
        let mut exercised = false;
        for seed in 0..64u64 {
            let fs = Arc::new(FaultFs::new(FaultKnobs {
                seed,
                lie_pm: 200_000,
                ..FaultKnobs::default()
            }));
            if stream_all(&fs).is_err() {
                continue;
            }
            fs.crash();
            let mut s = DurableSession::new(fs.clone());
            match s.recover_session() {
                Ok(Some(r)) => {
                    let full = payloads();
                    for (ci, warm) in r.classes.iter().enumerate() {
                        let n = warm.payloads.len();
                        assert!(
                            warm.payloads[..] == full[ci][..n],
                            "seed {seed}: class {ci} warm prefix diverges"
                        );
                        if n < full[ci].len() {
                            exercised = true;
                        }
                    }
                    if r.dropped_units > 0 {
                        exercised = true;
                    }
                }
                // A lie can also eat the pin or the manifest: that's a
                // (correct) cold start, or typed rot.
                Ok(None) | Err(_) => exercised = true,
            }
        }
        assert!(exercised, "no seed produced an observable fsync lie");
    }

    #[test]
    fn rotted_cache_entry_shrinks_the_warm_prefix() {
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(5)));
        stream_all(&fs).unwrap();
        // Rot one byte of class 0 unit 1's cache entry, post hoc.
        let name = UnitCache::entry_name(0, 1);
        let mut bytes = fs.durable(&name).unwrap();
        bytes[10] ^= 0x40;
        fs.set_durable(&name, bytes);
        let mut s = DurableSession::new(fs.clone());
        let r = s.recover_session().unwrap().unwrap();
        assert_eq!(
            r.classes[0].payloads.len(),
            1,
            "prefix must end before the rot"
        );
        assert_eq!(r.classes[0].payloads[0], payloads()[0][0]);
        assert_eq!(r.classes[1].payloads.len(), 2, "other classes unaffected");
        assert_eq!(r.dropped_units, 2);
    }

    #[test]
    fn manifest_pin_disagreement_fails_closed_and_warm_start_scrubs() {
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(6)));
        stream_all(&fs).unwrap();
        let mut bytes = fs.durable(MANIFEST_NAME).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs.set_durable(MANIFEST_NAME, bytes);
        let mut s = DurableSession::new(fs.clone());
        assert!(matches!(
            s.recover_session(),
            Err(StoreError::ManifestMismatch { .. })
        ));
        assert!(s.warm_start().is_none());
        // The scrub must leave a journal-free slate.
        assert!(fs.read(JOURNAL_NAME).is_err());
        assert!(fs.read(MANIFEST_NAME).is_err());
    }

    #[test]
    fn a_scrubbed_session_journals_onto_a_fresh_log() {
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(6)));
        let mut s = DurableSession::new(fs.clone());
        s.on_pin(7, &manifest().encode()).unwrap();
        let mut bytes = fs.durable(MANIFEST_NAME).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs.set_durable(MANIFEST_NAME, bytes);
        // The same session, having journaled already, hits the rotted
        // manifest and scrubs; what it journals next needs a header.
        assert!(s.warm_start().is_none());
        s.on_pin(7, &manifest().encode()).unwrap();
        s.on_complete().unwrap();
        fs.crash();
        let r = DurableSession::new(fs.clone())
            .recover_session()
            .unwrap()
            .unwrap();
        assert_eq!(r.generation, 7);
        assert!(r.completed);
        assert_eq!(r.torn_bytes, 0);
    }

    #[test]
    fn reset_all_discards_everything_pinned_before() {
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(7)));
        let mut s = DurableSession::new(fs.clone());
        s.on_pin(3, &manifest().encode()).unwrap();
        s.on_unit(0, 0, 1, 3, b"old-gen unit").unwrap();
        s.on_reset_all().unwrap();
        let m2 = UnitManifest::from_payloads(&payloads(), 0xabcd_0002);
        s.on_pin(4, &m2.encode()).unwrap();
        s.on_unit(0, 0, 1, 3, &payloads()[0][0]).unwrap();
        let mut s2 = DurableSession::new(fs.clone());
        let r = s2.recover_session().unwrap().unwrap();
        assert_eq!(r.generation, 4);
        assert_eq!(r.classes[0].payloads, vec![payloads()[0][0].clone()]);
    }

    #[test]
    fn truncate_record_rewinds_the_watermark() {
        let fs = Arc::new(FaultFs::new(FaultKnobs::quiet(8)));
        let mut s = DurableSession::new(fs.clone());
        s.on_pin(1, &manifest().encode()).unwrap();
        for (ui, p) in payloads()[0].iter().enumerate() {
            s.on_unit(0, ui as u32, 1, 3, p).unwrap();
        }
        s.on_truncate(0, 1).unwrap();
        // Re-delivery after the negotiated truncation.
        s.on_unit(0, 1, 1, 3, &payloads()[0][1]).unwrap();
        let mut s2 = DurableSession::new(fs.clone());
        let r = s2.recover_session().unwrap().unwrap();
        assert_eq!(r.classes[0].payloads, payloads()[0][..2].to_vec());
    }
}

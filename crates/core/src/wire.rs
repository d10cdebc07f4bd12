//! The byte-level protocol of the process-isolation tier: length-prefixed,
//! CRC-checked frames carrying one simulation job (parent → worker stdin)
//! and one reply (worker stdout → parent).
//!
//! Everything is hand-rolled over fixed-width little-endian scalars — the
//! workspace is offline, so no serde — and every float crosses the boundary
//! as its `f64::to_bits`, keeping the worker's inputs bit-identical to the
//! parent's. The codec is guarded twice:
//!
//! * each frame carries a CRC32 of its payload, so a torn or corrupted pipe
//!   read is detected rather than mis-decoded;
//! * the job embeds a fingerprint of the `Debug` rendering of everything it
//!   encodes ([`job_fingerprint`]); the worker recomputes it from the
//!   *decoded* values, so any codec drift (a skipped field, a lossy
//!   reconstruction) fails loudly as a transport error instead of silently
//!   simulating the wrong machine.
//!
//! Frame layout: `"RSTF"` magic, version byte, kind byte, `u32` payload
//! length, payload, `u32` CRC32 of the payload. Readers *scan* for the
//! magic, so a worker may emit unrelated bytes around the frame (a libtest
//! shim prints its own chatter) without confusing the parent.

use std::time::Duration;

use workloads::{registry, WorkloadProfile};

use crate::baselines::{DampingConfig, SensorConfig};
use crate::config::TuningConfig;
use crate::fault::{FailureKind, FaultSpec};
use crate::sim::{InstrumentedRun, PhaseTimings, SimConfig, SimResult, Technique};

/// Frame magic; readers scan input for this sequence.
const MAGIC: [u8; 4] = *b"RSTF";
/// Wire-format version; bump on any layout change.
const VERSION: u8 = 1;

/// Frame kinds.
pub(crate) const KIND_JOB: u8 = 1;
pub(crate) const KIND_RESULT: u8 = 2;
pub(crate) const KIND_FAILURE: u8 = 3;
/// Observability forwarding: a worker's counters and buffered trace lines,
/// written before its reply so the parent can splice them into its own sink.
pub(crate) const KIND_OBS: u8 = 4;

/// Cap on the fault-spec count a job frame may declare. Counts are read off
/// the wire *before* any allocation, so a corrupt length fails as a
/// transport error instead of a giant `Vec::with_capacity`.
const MAX_JOB_SPECS: usize = 1_024;

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// IEEE CRC32 (the zlib polynomial) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// FNV-1a fingerprint of the `Debug` rendering of one job's inputs. The
/// parent stamps it into the frame (and the worker's argv); the worker
/// recomputes it from the decoded values, so a lossy codec cannot silently
/// simulate the wrong configuration.
pub(crate) fn job_fingerprint(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    specs: &[FaultSpec],
) -> u64 {
    let identity = format!("job-v{VERSION}|{profile:?}|{technique:?}|{sim:?}|{specs:?}");
    crate::engine::fnv1a(identity.as_bytes())
}

// ---------------------------------------------------------------------------
// Scalar writer / reader
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self::default()
    }

    fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn take_u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn take_u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn take_u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn take_f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.take_u64()?))
    }

    fn take_str(&mut self) -> Option<&'a str> {
        let len = self.take_u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    /// `Some(())` only when every payload byte was consumed — trailing
    /// garbage means a codec mismatch.
    fn done(&self) -> Option<()> {
        (self.pos == self.buf.len()).then_some(())
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Wraps a payload into a full frame: magic, version, kind, length, payload,
/// CRC32.
pub(crate) fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 14);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Scans `bytes` for the first intact frame and returns its kind and
/// payload. Leading noise, a corrupt candidate (bad version, length past the
/// buffer, CRC mismatch), or an unrelated `RSTF` in the noise just moves the
/// scan forward; `None` means no intact frame anywhere.
pub(crate) fn scan_frame(bytes: &[u8]) -> Option<(u8, &[u8])> {
    scan_frame_from(bytes, 0).map(|(kind, payload, _)| (kind, payload))
}

/// Collects every intact frame in `bytes`, in order. A worker's stdout may
/// carry an observability frame before the reply frame; the parent consumes
/// both from one buffered read.
pub(crate) fn scan_frames(bytes: &[u8]) -> Vec<(u8, &[u8])> {
    let mut frames = Vec::new();
    let mut start = 0usize;
    while let Some((kind, payload, next)) = scan_frame_from(bytes, start) {
        frames.push((kind, payload));
        start = next;
    }
    frames
}

/// The scan behind [`scan_frame`] / [`scan_frames`]: the first intact frame
/// at or after byte `start`, plus the offset just past it (so a multi-frame
/// scan resumes after the payload instead of re-matching magic inside it).
fn scan_frame_from(bytes: &[u8], mut start: usize) -> Option<(u8, &[u8], usize)> {
    while start + 14 <= bytes.len() {
        let offset = bytes[start..]
            .windows(4)
            .position(|w| w == MAGIC)
            .map(|o| start + o)?;
        start = offset + 1;
        let header = offset + 4;
        let Some(&version) = bytes.get(header) else {
            continue;
        };
        let Some(&kind) = bytes.get(header + 1) else {
            continue;
        };
        if version != VERSION {
            continue;
        }
        let Some(len_bytes) = bytes.get(header + 2..header + 6) else {
            continue;
        };
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4-byte slice")) as usize;
        let body = header + 6;
        let Some(payload) = bytes.get(body..body + len) else {
            continue;
        };
        let Some(crc_bytes) = bytes.get(body + len..body + len + 4) else {
            continue;
        };
        let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4-byte slice"));
        if crc == crc32(payload) {
            return Some((kind, payload, body + len + 4));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Job codec
// ---------------------------------------------------------------------------

/// One decoded worker job: everything a child needs to run a single
/// application attempt.
pub(crate) struct Job {
    pub profile: WorkloadProfile,
    pub technique: Technique,
    pub sim: SimConfig,
    pub specs: Vec<FaultSpec>,
    pub deadline: Option<Duration>,
    pub fingerprint: u64,
}

const TECH_BASE: u8 = 0;
const TECH_TUNING: u8 = 1;
const TECH_SENSOR: u8 = 2;
const TECH_DAMPING: u8 = 3;

fn put_technique(w: &mut Writer, technique: &Technique) {
    match technique {
        Technique::Base => w.put_u8(TECH_BASE),
        Technique::Tuning(t) => {
            w.put_u8(TECH_TUNING);
            w.put_u64(t.band_min_period.count());
            w.put_u64(t.band_max_period.count());
            w.put_f64(t.variation_threshold.amps());
            for v in [
                t.max_repetition_tolerance,
                t.initial_response_threshold,
                t.second_level_threshold,
                t.initial_response_time,
                t.second_level_time,
                t.first_level_issue_width,
                t.first_level_mem_ports,
                t.response_delay,
            ] {
                w.put_u32(v);
            }
        }
        Technique::Sensor(s) => {
            w.put_u8(TECH_SENSOR);
            w.put_f64(s.target_threshold.volts());
            w.put_f64(s.sensor_noise_pp.volts());
            w.put_u32(s.delay_cycles);
            w.put_u32(s.min_response_cycles);
            w.put_u64(s.noise_seed);
        }
        Technique::Damping(d) => {
            w.put_u8(TECH_DAMPING);
            w.put_f64(d.delta.amps());
            w.put_u32(d.window);
            w.put_f64(d.idle_current.amps());
        }
    }
}

fn take_technique(r: &mut Reader) -> Option<Technique> {
    use rlc::units::{Amps, Cycles, Volts};
    Some(match r.take_u8()? {
        TECH_BASE => Technique::Base,
        TECH_TUNING => Technique::Tuning(TuningConfig {
            band_min_period: Cycles::new(r.take_u64()?),
            band_max_period: Cycles::new(r.take_u64()?),
            variation_threshold: Amps::new(r.take_f64()?),
            max_repetition_tolerance: r.take_u32()?,
            initial_response_threshold: r.take_u32()?,
            second_level_threshold: r.take_u32()?,
            initial_response_time: r.take_u32()?,
            second_level_time: r.take_u32()?,
            first_level_issue_width: r.take_u32()?,
            first_level_mem_ports: r.take_u32()?,
            response_delay: r.take_u32()?,
        }),
        TECH_SENSOR => Technique::Sensor(SensorConfig {
            target_threshold: Volts::new(r.take_f64()?),
            sensor_noise_pp: Volts::new(r.take_f64()?),
            delay_cycles: r.take_u32()?,
            min_response_cycles: r.take_u32()?,
            noise_seed: r.take_u64()?,
        }),
        TECH_DAMPING => Technique::Damping(DampingConfig {
            delta: Amps::new(r.take_f64()?),
            window: r.take_u32()?,
            idle_current: Amps::new(r.take_f64()?),
        }),
        _ => return None,
    })
}

fn put_spec(w: &mut Writer, spec: &FaultSpec) {
    match *spec {
        FaultSpec::SensorStuck {
            from_cycle,
            hold_cycles,
        } => {
            w.put_u8(0);
            w.put_u64(from_cycle);
            w.put_u64(hold_cycles);
        }
        FaultSpec::SensorNoise { sigma, seed } => {
            w.put_u8(1);
            w.put_f64(sigma);
            w.put_u64(seed);
        }
        FaultSpec::SensorDelay { cycles } => {
            w.put_u8(2);
            w.put_u32(cycles);
        }
        FaultSpec::NumericNan { at_cycle } => {
            w.put_u8(3);
            w.put_u64(at_cycle);
        }
        FaultSpec::NumericInf { at_cycle } => {
            w.put_u8(4);
            w.put_u64(at_cycle);
        }
        FaultSpec::NumericOverflow { at_cycle } => {
            w.put_u8(5);
            w.put_u64(at_cycle);
        }
        FaultSpec::WorkerPanic => w.put_u8(6),
        FaultSpec::WorkerStall { millis } => {
            w.put_u8(7);
            w.put_u64(millis);
        }
        FaultSpec::WorkerAbort => w.put_u8(8),
        FaultSpec::WorkerKill => w.put_u8(9),
    }
}

fn take_spec(r: &mut Reader) -> Option<FaultSpec> {
    Some(match r.take_u8()? {
        0 => FaultSpec::SensorStuck {
            from_cycle: r.take_u64()?,
            hold_cycles: r.take_u64()?,
        },
        1 => FaultSpec::SensorNoise {
            sigma: r.take_f64()?,
            seed: r.take_u64()?,
        },
        2 => FaultSpec::SensorDelay {
            cycles: r.take_u32()?,
        },
        3 => FaultSpec::NumericNan {
            at_cycle: r.take_u64()?,
        },
        4 => FaultSpec::NumericInf {
            at_cycle: r.take_u64()?,
        },
        5 => FaultSpec::NumericOverflow {
            at_cycle: r.take_u64()?,
        },
        6 => FaultSpec::WorkerPanic,
        7 => FaultSpec::WorkerStall {
            millis: r.take_u64()?,
        },
        8 => FaultSpec::WorkerAbort,
        9 => FaultSpec::WorkerKill,
        _ => return None,
    })
}

/// Encodes a job payload. The machine configuration crosses the boundary as
/// its instruction budget alone — the isolation tier only spawns workers
/// when the parent's `SimConfig` equals `SimConfig::isca04(instructions)`
/// (checked by the caller and re-checked via the fingerprint), so the child
/// reconstructs it losslessly from the constructor.
pub(crate) fn encode_job(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    specs: &[FaultSpec],
    deadline: Option<Duration>,
    fingerprint: u64,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(fingerprint);
    w.put_str(profile.name);
    put_technique(&mut w, technique);
    w.put_u64(sim.instructions);
    w.put_u32(specs.len() as u32);
    for spec in specs {
        put_spec(&mut w, spec);
    }
    match deadline {
        Some(d) => {
            w.put_u8(1);
            w.put_u64(d.as_nanos() as u64);
        }
        None => w.put_u8(0),
    }
    w.into_bytes()
}

/// Decodes a job payload; the profile resolves through the workload
/// registry (an unknown name means parent and child disagree on the suite).
pub(crate) fn decode_job(payload: &[u8]) -> Option<Job> {
    let mut r = Reader::new(payload);
    let fingerprint = r.take_u64()?;
    let profile = registry::by_name(r.take_str()?)?;
    let technique = take_technique(&mut r)?;
    let sim = SimConfig::isca04(r.take_u64()?);
    let count = r.take_u32()? as usize;
    if count > MAX_JOB_SPECS {
        return None;
    }
    let mut specs = Vec::with_capacity(count);
    for _ in 0..count {
        specs.push(take_spec(&mut r)?);
    }
    let deadline = match r.take_u8()? {
        0 => None,
        1 => Some(Duration::from_nanos(r.take_u64()?)),
        _ => return None,
    };
    r.done()?;
    Some(Job {
        profile,
        technique,
        sim,
        specs,
        deadline,
        fingerprint,
    })
}

// ---------------------------------------------------------------------------
// Reply codecs
// ---------------------------------------------------------------------------

/// Encodes a successful run's reply payload.
pub(crate) fn encode_result(inst: &InstrumentedRun) -> Vec<u8> {
    let mut w = Writer::new();
    let r = &inst.result;
    w.put_str(r.app);
    w.put_u64(r.cycles);
    w.put_u64(r.committed);
    w.put_f64(r.ipc);
    w.put_u64(r.violation_cycles);
    w.put_f64(r.worst_noise.volts());
    w.put_f64(r.energy_joules);
    w.put_f64(r.energy_delay);
    w.put_u64(r.first_level_cycles);
    w.put_u64(r.second_level_cycles);
    w.put_u64(r.sensor_response_cycles);
    w.put_u64(r.damping_bound_cycles);
    w.put_u64(inst.detector_events);
    for d in [
        inst.phases.controller,
        inst.phases.cpu,
        inst.phases.power,
        inst.phases.supply,
        inst.phases.supply_flush,
    ] {
        w.put_u64(d.as_nanos() as u64);
    }
    w.put_u64(inst.phases.sampled_cycles);
    w.put_u64(inst.wall.as_nanos() as u64);
    w.into_bytes()
}

/// Decodes a successful run's reply payload.
pub(crate) fn decode_result(payload: &[u8]) -> Option<InstrumentedRun> {
    let mut r = Reader::new(payload);
    let app = registry::by_name(r.take_str()?)?.name;
    let result = SimResult {
        app,
        cycles: r.take_u64()?,
        committed: r.take_u64()?,
        ipc: r.take_f64()?,
        violation_cycles: r.take_u64()?,
        worst_noise: rlc::units::Volts::new(r.take_f64()?),
        energy_joules: r.take_f64()?,
        energy_delay: r.take_f64()?,
        first_level_cycles: r.take_u64()?,
        second_level_cycles: r.take_u64()?,
        sensor_response_cycles: r.take_u64()?,
        damping_bound_cycles: r.take_u64()?,
    };
    let detector_events = r.take_u64()?;
    let phases = PhaseTimings {
        controller: Duration::from_nanos(r.take_u64()?),
        cpu: Duration::from_nanos(r.take_u64()?),
        power: Duration::from_nanos(r.take_u64()?),
        supply: Duration::from_nanos(r.take_u64()?),
        supply_flush: Duration::from_nanos(r.take_u64()?),
        sampled_cycles: r.take_u64()?,
    };
    let wall = Duration::from_nanos(r.take_u64()?);
    r.done()?;
    Some(InstrumentedRun {
        result,
        detector_events,
        phases,
        wall,
    })
}

const FAILURE_TAGS: [(u8, FailureKind); 7] = [
    (0, FailureKind::Panic),
    (1, FailureKind::Timeout),
    (2, FailureKind::Numerical),
    (3, FailureKind::Storage),
    (4, FailureKind::Crash),
    (5, FailureKind::Transport),
    (6, FailureKind::Interrupted),
];

/// Encodes a classified-failure reply payload.
pub(crate) fn encode_failure(kind: FailureKind, message: &str) -> Vec<u8> {
    let tag = FAILURE_TAGS
        .iter()
        .find(|(_, k)| *k == kind)
        .map(|(t, _)| *t)
        .expect("every FailureKind has a wire tag");
    let mut w = Writer::new();
    w.put_u8(tag);
    w.put_str(message);
    w.into_bytes()
}

/// Decodes a classified-failure reply payload.
pub(crate) fn decode_failure(payload: &[u8]) -> Option<(FailureKind, String)> {
    let mut r = Reader::new(payload);
    let tag = r.take_u8()?;
    let kind = FAILURE_TAGS
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, k)| *k)?;
    let message = r.take_str()?.to_string();
    r.done()?;
    Some((kind, message))
}

/// Cap on forwarded counters; far above anything the registry produces.
const MAX_OBS_COUNTERS: usize = 4_096;
/// Cap on forwarded trace lines; the per-run waveform cap bounds real
/// traffic well below this.
const MAX_OBS_LINES: usize = 65_536;

/// Encodes a worker's observability payload: its counter snapshot and the
/// trace lines buffered by the `wire` forwarding sink.
pub(crate) fn encode_obs(counters: &[(String, u64)], lines: &[String]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(counters.len() as u32);
    for (name, value) in counters {
        w.put_str(name);
        w.put_u64(*value);
    }
    w.put_u32(lines.len() as u32);
    for line in lines {
        w.put_str(line);
    }
    w.into_bytes()
}

/// Decodes an observability payload.
#[allow(clippy::type_complexity)]
pub(crate) fn decode_obs(payload: &[u8]) -> Option<(Vec<(String, u64)>, Vec<String>)> {
    let mut r = Reader::new(payload);
    let counter_count = r.take_u32()? as usize;
    if counter_count > MAX_OBS_COUNTERS {
        return None;
    }
    let mut counters = Vec::with_capacity(counter_count);
    for _ in 0..counter_count {
        let name = r.take_str()?.to_string();
        let value = r.take_u64()?;
        counters.push((name, value));
    }
    let line_count = r.take_u32()? as usize;
    if line_count > MAX_OBS_LINES {
        return None;
    }
    let mut lines = Vec::with_capacity(line_count);
    for _ in 0..line_count {
        lines.push(r.take_str()?.to_string());
    }
    r.done()?;
    Some((counters, lines))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::spec2k;

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips_through_surrounding_noise() {
        let payload = b"the payload".to_vec();
        let mut stream = b"running 1 test\nRSTF half-magic noise ".to_vec();
        stream.extend_from_slice(&encode_frame(KIND_RESULT, &payload));
        stream.extend_from_slice(b"\ntest result: ok\n");
        let (kind, decoded) = scan_frame(&stream).expect("frame found through noise");
        assert_eq!(kind, KIND_RESULT);
        assert_eq!(decoded, payload.as_slice());
    }

    #[test]
    fn corrupt_frames_are_rejected_not_misread() {
        let mut frame = encode_frame(KIND_JOB, b"payload-bytes");
        let mid = frame.len() - 6; // inside the payload
        frame[mid] ^= 0x01;
        assert!(scan_frame(&frame).is_none(), "CRC must catch the flip");
        assert!(scan_frame(b"no frame here").is_none());
        assert!(scan_frame(&[]).is_none());
    }

    #[test]
    fn job_round_trips_bit_exactly_for_every_technique() {
        let profile = spec2k::by_name("swim").unwrap();
        let sim = SimConfig::isca04(20_000);
        let techniques = [
            Technique::Base,
            Technique::Tuning(TuningConfig::isca04_table1(100).with_response_delay(5)),
            Technique::Sensor(SensorConfig::table4(20.0, 15.0, 3)),
            Technique::Damping(DampingConfig::isca04_table5(0.25)),
        ];
        let specs = [
            FaultSpec::SensorStuck {
                from_cycle: 256,
                hold_cycles: 64,
            },
            FaultSpec::SensorNoise {
                sigma: 0.125,
                seed: 7,
            },
            FaultSpec::SensorDelay { cycles: 3 },
            FaultSpec::NumericNan { at_cycle: 500 },
            FaultSpec::NumericInf { at_cycle: 501 },
            FaultSpec::NumericOverflow { at_cycle: 502 },
            FaultSpec::WorkerPanic,
            FaultSpec::WorkerStall { millis: 12 },
            FaultSpec::WorkerAbort,
            FaultSpec::WorkerKill,
        ];
        for technique in &techniques {
            let fp = job_fingerprint(&profile, technique, &sim, &specs);
            let payload = encode_job(
                &profile,
                technique,
                &sim,
                &specs,
                Some(Duration::from_millis(1500)),
                fp,
            );
            let job = decode_job(&payload).expect("job decodes");
            assert_eq!(job.profile, profile);
            assert_eq!(&job.technique, technique);
            assert_eq!(job.sim, sim);
            assert_eq!(job.specs, specs);
            assert_eq!(job.deadline, Some(Duration::from_millis(1500)));
            assert_eq!(job.fingerprint, fp);
            // The decoded values fingerprint identically: the codec is
            // provably lossless down to float bits.
            assert_eq!(
                job_fingerprint(&job.profile, &job.technique, &job.sim, &job.specs),
                fp
            );
        }
    }

    #[test]
    fn corpus_jobs_resolve_through_the_registry_and_fingerprint_distinctly() {
        let sim = SimConfig::isca04(8_000);
        let mut fingerprints: Vec<u64> = ["hazards", "quicksort", "resonance"]
            .iter()
            .map(|name| {
                let profile = workloads::corpus::by_name(name).expect("app is in the corpus");
                let fp = job_fingerprint(&profile, &Technique::Base, &sim, &[]);
                let payload = encode_job(&profile, &Technique::Base, &sim, &[], None, fp);
                let job = decode_job(&payload).expect("corpus job decodes");
                assert_eq!(job.profile, profile);
                assert_eq!(
                    job_fingerprint(&job.profile, &job.technique, &job.sim, &job.specs),
                    fp
                );
                fp
            })
            .collect();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(
            fingerprints.len(),
            3,
            "distinct programs fingerprint distinctly"
        );
    }

    #[test]
    fn job_with_unknown_app_or_trailing_bytes_is_rejected() {
        let profile = spec2k::by_name("gzip").unwrap();
        let sim = SimConfig::isca04(1_000);
        let mut payload = encode_job(&profile, &Technique::Base, &sim, &[], None, 1);
        payload.push(0xAA);
        assert!(decode_job(&payload).is_none(), "trailing bytes must fail");

        let mut w = Writer::new();
        w.put_u64(1);
        w.put_str("not-a-spec2k-app");
        assert!(decode_job(&w.into_bytes()).is_none());
    }

    #[test]
    fn result_reply_round_trips_bit_exactly() {
        let inst = InstrumentedRun {
            result: SimResult {
                app: spec2k::by_name("mcf").unwrap().name,
                cycles: 123_456,
                committed: 120_000,
                ipc: 0.972_345_678_9,
                violation_cycles: 17,
                worst_noise: rlc::units::Volts::new(-0.037_125),
                energy_joules: 1.25e-3,
                energy_delay: 9.5e-9,
                first_level_cycles: 321,
                second_level_cycles: 12,
                sensor_response_cycles: 0,
                damping_bound_cycles: 0,
            },
            detector_events: 42,
            phases: PhaseTimings {
                controller: Duration::from_nanos(1_001),
                cpu: Duration::from_nanos(2_002),
                power: Duration::from_nanos(3_003),
                supply: Duration::from_nanos(4_004),
                supply_flush: Duration::from_nanos(5_005),
                sampled_cycles: 1_929,
            },
            wall: Duration::from_millis(35),
        };
        let decoded = decode_result(&encode_result(&inst)).expect("reply decodes");
        assert_eq!(decoded.result, inst.result);
        assert_eq!(decoded.detector_events, inst.detector_events);
        assert_eq!(decoded.phases, inst.phases);
        assert_eq!(decoded.wall, inst.wall);
    }

    #[test]
    fn obs_payload_round_trips_and_rejects_garbage() {
        let counters = vec![
            ("sim.detector_fires".to_string(), 12),
            ("warn.batch".to_string(), 1),
        ];
        let lines = vec![
            r#"{"kind":"violation","app":"swim","cycle":150123}"#.to_string(),
            r#"{"kind":"warn","wall":0.25,"message":"x"}"#.to_string(),
        ];
        let payload = encode_obs(&counters, &lines);
        let (c, l) = decode_obs(&payload).expect("obs decodes");
        assert_eq!(c, counters);
        assert_eq!(l, lines);

        let empty = encode_obs(&[], &[]);
        assert_eq!(decode_obs(&empty), Some((Vec::new(), Vec::new())));

        let mut torn = payload.clone();
        torn.truncate(torn.len() - 3);
        assert!(decode_obs(&torn).is_none(), "truncation must fail");
        let mut trailing = payload;
        trailing.push(0);
        assert!(decode_obs(&trailing).is_none(), "trailing bytes must fail");
    }

    #[test]
    fn multi_frame_streams_scan_in_order() {
        let mut stream = b"libtest chatter ".to_vec();
        stream.extend_from_slice(&encode_frame(KIND_OBS, &encode_obs(&[], &[])));
        stream.extend_from_slice(b" between-frame noise RSTF fake ");
        stream.extend_from_slice(&encode_frame(KIND_RESULT, b"reply"));
        stream.extend_from_slice(b"\ntrailing chatter\n");
        let frames = scan_frames(&stream);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].0, KIND_OBS);
        assert_eq!(frames[1].0, KIND_RESULT);
        assert_eq!(frames[1].1, b"reply");
        // The single-frame scan still returns the first one.
        assert_eq!(scan_frame(&stream).map(|(k, _)| k), Some(KIND_OBS));
        // A payload that itself contains frame-like bytes does not derail
        // the resume point of the multi-frame scan.
        let inner = encode_frame(KIND_FAILURE, b"inner");
        let outer = encode_frame(KIND_RESULT, &inner);
        let mut doubled = outer.clone();
        doubled.extend_from_slice(&encode_frame(KIND_OBS, b"after"));
        let frames = scan_frames(&doubled);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], (KIND_RESULT, inner.as_slice()));
        assert_eq!(frames[1], (KIND_OBS, b"after".as_slice()));
    }

    #[test]
    fn job_spec_count_is_capped_before_any_allocation() {
        // Satellite: a corrupt spec count off the wire must fail as a
        // transport error, never reach `Vec::with_capacity`. Hand-roll a
        // payload that is valid up to the count, then lies about it.
        let mut w = Writer::new();
        w.put_u64(0xDEAD_BEEF);
        w.put_str("swim");
        w.put_u8(0); // Technique::Base
        w.put_u64(1_000); // instructions
        w.put_u32(u32::MAX); // a 4-billion-spec allocation bomb
        let payload = w.into_bytes();
        assert!(decode_job(&payload).is_none(), "corrupt count must fail");

        // One past the cap is rejected; at the cap the decode proceeds (and
        // then fails later only because the specs themselves are missing).
        let at_limit = |count: u32| {
            let mut w = Writer::new();
            w.put_u64(1);
            w.put_str("swim");
            w.put_u8(0);
            w.put_u64(1_000);
            w.put_u32(count);
            decode_job(&w.into_bytes())
        };
        assert!(at_limit(MAX_JOB_SPECS as u32 + 1).is_none());
        assert!(at_limit(MAX_JOB_SPECS as u32).is_none(), "truncated specs");
    }

    #[test]
    fn failure_reply_round_trips_every_kind() {
        for (_, kind) in FAILURE_TAGS {
            let payload = encode_failure(kind, "what happened");
            let (k, msg) = decode_failure(&payload).expect("failure decodes");
            assert_eq!(k, kind);
            assert_eq!(msg, "what happened");
        }
        assert!(decode_failure(&[250, 0, 0, 0, 0]).is_none(), "unknown tag");
    }
}

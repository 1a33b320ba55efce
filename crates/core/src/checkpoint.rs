//! Durable, versioned, checksummed training checkpoints.
//!
//! Both drivers write a checkpoint every `K` rounds when [`crate::config::CheckpointSpec`]
//! is set, capturing everything a resumed run needs to be **byte-identical** to an
//! uninterrupted one: the PS global vector + snapshot ring, per-worker model /
//! optimizer / tracker state, the δ-policy state, RNG word positions, time/byte
//! accounting, and the canonically sorted trace prefix. `scenario_run --resume <ckpt>`
//! (and the equivalent library entry points) restore it and continue from the next
//! round.
//!
//! ## Format
//!
//! A line-oriented text file, human-diffable like the event log:
//!
//! ```text
//! selsync-ckpt v1
//! backend sim
//! fingerprint 9f8a7b6c5d4e3f21
//! round 7
//! sections 3
//! section ps 2 12
//! i 1 7
//! f 3f800000 40000000 ...
//! ...
//! trace 9
//! <raw event-log lines>
//! checksum 0123456789abcdef
//! ```
//!
//! Floats are stored as `f32::to_bits` hex words (bit-exact; no decimal rounding),
//! `f64` accumulators as `to_bits` inside the `i` array. The trailing `checksum`
//! line is FNV-1a-64 ([`selsync_comm::wire::checksum`]) over every preceding byte
//! and carries **no trailing newline**, so any single-byte corruption — including
//! in the checksum line itself — is rejected at decode time.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use selsync_comm::wire;

use crate::config::TrainConfig;

/// Format tag in the first line of every checkpoint file.
pub const CHECKPOINT_VERSION: u32 = 1;

/// One named state block: parallel integer/float arrays with a fixed, producer-defined
/// packing (read back with a [`SectionReader`] in the same order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Section {
    /// Section name (no whitespace; unique within a checkpoint).
    pub name: String,
    /// Integer payload (counters, flags, `f64::to_bits` words).
    pub ints: Vec<u64>,
    /// Float payload (parameters, EWMA state, losses).
    pub floats: Vec<f32>,
}

impl Section {
    /// Create an empty section.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(
            !name.is_empty() && !name.contains(char::is_whitespace),
            "section name must be non-empty and whitespace-free"
        );
        Section {
            name,
            ints: Vec::new(),
            floats: Vec::new(),
        }
    }

    /// Append an integer.
    pub fn push_int(&mut self, v: u64) {
        self.ints.push(v);
    }

    /// Append a usize as an integer.
    pub fn push_usize(&mut self, v: usize) {
        self.ints.push(v as u64);
    }

    /// Append a bool as 0/1.
    pub fn push_bool(&mut self, v: bool) {
        self.ints.push(u64::from(v));
    }

    /// Append an `f64` bit-exactly (as its `to_bits` word).
    pub fn push_f64(&mut self, v: f64) {
        self.ints.push(v.to_bits());
    }

    /// Append one float.
    pub fn push_f32(&mut self, v: f32) {
        self.floats.push(v);
    }

    /// Append an optional float as presence flag + value.
    pub fn push_opt_f32(&mut self, v: Option<f32>) {
        self.ints.push(u64::from(v.is_some()));
        self.floats.push(v.unwrap_or(0.0));
    }

    /// Append an optional integer as presence flag + value.
    pub fn push_opt_int(&mut self, v: Option<u64>) {
        self.ints.push(u64::from(v.is_some()));
        self.ints.push(v.unwrap_or(0));
    }

    /// Append a length-prefixed float slice.
    pub fn push_f32s(&mut self, vs: &[f32]) {
        self.ints.push(vs.len() as u64);
        self.floats.extend_from_slice(vs);
    }

    /// Append a length-prefixed integer slice.
    pub fn push_ints(&mut self, vs: &[u64]) {
        self.ints.push(vs.len() as u64);
        self.ints.extend_from_slice(vs);
    }

    /// A cursor reading the section back in write order.
    pub fn reader(&self) -> SectionReader<'_> {
        SectionReader {
            section: self,
            int_pos: 0,
            float_pos: 0,
        }
    }
}

/// Cursor over a [`Section`]'s parallel arrays; reads must mirror the write order.
/// Every accessor panics with the section name on underrun — a checkpoint that parses
/// but carries the wrong shape is a programming error, not an I/O condition.
#[derive(Debug)]
pub struct SectionReader<'a> {
    section: &'a Section,
    int_pos: usize,
    float_pos: usize,
}

impl SectionReader<'_> {
    fn next_int(&mut self) -> u64 {
        let v =
            *self.section.ints.get(self.int_pos).unwrap_or_else(|| {
                panic!("checkpoint section '{}': int underrun", self.section.name)
            });
        self.int_pos += 1;
        v
    }

    fn next_float(&mut self) -> f32 {
        let v = *self.section.floats.get(self.float_pos).unwrap_or_else(|| {
            panic!("checkpoint section '{}': float underrun", self.section.name)
        });
        self.float_pos += 1;
        v
    }

    /// Read one integer.
    pub fn int(&mut self) -> u64 {
        self.next_int()
    }

    /// Read one integer as usize.
    pub fn usize(&mut self) -> usize {
        self.next_int() as usize
    }

    /// Read one bool (0/1).
    pub fn bool(&mut self) -> bool {
        self.next_int() != 0
    }

    /// Read one `f64` stored as its bits.
    pub fn f64(&mut self) -> f64 {
        f64::from_bits(self.next_int())
    }

    /// Read one float.
    pub fn f32(&mut self) -> f32 {
        self.next_float()
    }

    /// Read an optional float (flag + value).
    pub fn opt_f32(&mut self) -> Option<f32> {
        let has = self.bool();
        let v = self.next_float();
        has.then_some(v)
    }

    /// Read an optional integer (flag + value).
    pub fn opt_int(&mut self) -> Option<u64> {
        let has = self.bool();
        let v = self.next_int();
        has.then_some(v)
    }

    /// Read a length-prefixed float slice.
    pub fn f32s(&mut self) -> Vec<f32> {
        let n = self.usize();
        (0..n).map(|_| self.next_float()).collect()
    }

    /// Read a length-prefixed integer slice.
    pub fn ints(&mut self) -> Vec<u64> {
        let n = self.usize();
        (0..n).map(|_| self.next_int()).collect()
    }

    /// Assert the section was consumed exactly (catches producer/consumer drift).
    pub fn finish(self) {
        assert!(
            self.int_pos == self.section.ints.len() && self.float_pos == self.section.floats.len(),
            "checkpoint section '{}': {} ints / {} floats left unread",
            self.section.name,
            self.section.ints.len() - self.int_pos,
            self.section.floats.len() - self.float_pos,
        );
    }
}

/// A complete, decoded checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which driver wrote it (`"sim"` / `"threaded"` / `"process"`). The two
    /// real backends share one layout; resume translates to or from `"sim"`
    /// and refuses any other tag.
    pub backend: String,
    /// [`config_fingerprint`] of the run's configuration; resume refuses a mismatch.
    pub fingerprint: u64,
    /// The completed round the state was captured *after*; resume continues at
    /// `round + 1`.
    pub round: usize,
    /// Named state blocks in write order.
    pub sections: Vec<Section>,
    /// The canonically sorted encoded trace prefix (rounds `0..=round`), preloaded
    /// into the resumed run's sink.
    pub trace: Vec<String>,
}

impl Checkpoint {
    /// Start an empty checkpoint.
    pub fn new(backend: impl Into<String>, fingerprint: u64, round: usize) -> Self {
        let backend = backend.into();
        assert!(
            !backend.is_empty() && !backend.contains(char::is_whitespace),
            "backend tag must be non-empty and whitespace-free"
        );
        Checkpoint {
            backend,
            fingerprint,
            round,
            sections: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Append a section (names must be unique).
    pub fn add_section(&mut self, section: Section) {
        assert!(
            self.section(&section.name).is_none(),
            "duplicate checkpoint section '{}'",
            section.name
        );
        self.sections.push(section);
    }

    /// Look up a section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// A reader over the named section; panics when absent (shape errors are bugs).
    pub fn read_section(&self, name: &str) -> SectionReader<'_> {
        self.section(name)
            .unwrap_or_else(|| panic!("checkpoint is missing section '{name}'"))
            .reader()
    }

    /// Serialize to the versioned text format (see the module docs).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("selsync-ckpt v{CHECKPOINT_VERSION}\n"));
        out.push_str(&format!("backend {}\n", self.backend));
        out.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        out.push_str(&format!("round {}\n", self.round));
        out.push_str(&format!("sections {}\n", self.sections.len()));
        for s in &self.sections {
            out.push_str(&format!(
                "section {} {} {}\n",
                s.name,
                s.ints.len(),
                s.floats.len()
            ));
            // Words are written straight into `out`: one string per word would
            // take several times the memory of the image itself.
            out.push_str("i ");
            for (k, v) in s.ints.iter().enumerate() {
                let sep = if k == 0 { "" } else { " " };
                write!(out, "{sep}{v}").expect("writing to a String cannot fail");
            }
            out.push_str("\nf ");
            for (k, v) in s.floats.iter().enumerate() {
                let sep = if k == 0 { "" } else { " " };
                write!(out, "{sep}{:08x}", v.to_bits()).expect("writing to a String cannot fail");
            }
            out.push('\n');
        }
        out.push_str(&format!("trace {}\n", self.trace.len()));
        for line in &self.trace {
            debug_assert!(!line.contains('\n'), "trace lines must be single lines");
            out.push_str(line);
            out.push('\n');
        }
        let sum = wire::checksum(out.as_bytes());
        // Deliberately no trailing newline: the checksum line protects itself.
        out.push_str(&format!("checksum {sum:016x}"));
        out
    }

    /// Parse and verify the text format. Any structural damage or checksum mismatch
    /// is an error — a checkpoint is either bit-perfect or rejected.
    pub fn decode(text: &str) -> Result<Checkpoint, String> {
        let last_nl = text
            .rfind('\n')
            .ok_or_else(|| "checkpoint: missing body".to_string())?;
        let (body, last_line) = text.split_at(last_nl + 1);
        let stated = last_line
            .strip_prefix("checksum ")
            .ok_or_else(|| "checkpoint: missing checksum line".to_string())?;
        let stated = u64::from_str_radix(stated.trim(), 16)
            .map_err(|e| format!("checkpoint: bad checksum literal: {e}"))?;
        let actual = wire::checksum(body.as_bytes());
        if stated != actual {
            return Err(format!(
                "checkpoint: checksum mismatch (stated {stated:016x}, computed {actual:016x})"
            ));
        }

        let mut lines = body.lines();
        let mut next = |what: &str| {
            lines
                .next()
                .ok_or_else(|| format!("checkpoint: truncated before {what}"))
        };
        let version = next("version")?;
        if version != format!("selsync-ckpt v{CHECKPOINT_VERSION}") {
            return Err(format!("checkpoint: unsupported version line '{version}'"));
        }
        let backend = next("backend")?
            .strip_prefix("backend ")
            .ok_or_else(|| "checkpoint: missing backend line".to_string())?
            .to_string();
        let fingerprint = next("fingerprint")?
            .strip_prefix("fingerprint ")
            .ok_or_else(|| "checkpoint: missing fingerprint line".to_string())
            .and_then(|h| {
                u64::from_str_radix(h, 16).map_err(|e| format!("checkpoint: bad fingerprint: {e}"))
            })?;
        let round: usize = next("round")?
            .strip_prefix("round ")
            .ok_or_else(|| "checkpoint: missing round line".to_string())
            .and_then(|r| r.parse().map_err(|e| format!("checkpoint: bad round: {e}")))?;
        let n_sections: usize = next("sections")?
            .strip_prefix("sections ")
            .ok_or_else(|| "checkpoint: missing sections line".to_string())
            .and_then(|n| {
                n.parse()
                    .map_err(|e| format!("checkpoint: bad section count: {e}"))
            })?;

        let mut ckpt = Checkpoint::new(
            if backend.is_empty() || backend.contains(char::is_whitespace) {
                return Err("checkpoint: malformed backend tag".to_string());
            } else {
                backend
            },
            fingerprint,
            round,
        );
        for _ in 0..n_sections {
            let header = next("section header")?;
            let mut parts = header
                .strip_prefix("section ")
                .ok_or_else(|| format!("checkpoint: expected section header, got '{header}'"))?
                .split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| "checkpoint: section header missing name".to_string())?
                .to_string();
            let ni: usize = parts
                .next()
                .ok_or_else(|| "checkpoint: section header missing int count".to_string())?
                .parse()
                .map_err(|e| format!("checkpoint: bad int count: {e}"))?;
            let nf: usize = parts
                .next()
                .ok_or_else(|| "checkpoint: section header missing float count".to_string())?
                .parse()
                .map_err(|e| format!("checkpoint: bad float count: {e}"))?;
            if parts.next().is_some() {
                return Err(format!(
                    "checkpoint: trailing junk in section header '{header}'"
                ));
            }
            let int_line = next("int line")?;
            let ints: Vec<u64> = int_line
                .strip_prefix("i")
                .ok_or_else(|| format!("checkpoint: expected int line, got '{int_line}'"))?
                .split_whitespace()
                .map(|v| v.parse().map_err(|e| format!("checkpoint: bad int: {e}")))
                .collect::<Result<_, _>>()?;
            if ints.len() != ni {
                return Err(format!(
                    "checkpoint: section '{name}' declares {ni} ints, found {}",
                    ints.len()
                ));
            }
            let float_line = next("float line")?;
            let floats: Vec<f32> = float_line
                .strip_prefix("f")
                .ok_or_else(|| format!("checkpoint: expected float line, got '{float_line}'"))?
                .split_whitespace()
                .map(|v| {
                    u32::from_str_radix(v, 16)
                        .map(f32::from_bits)
                        .map_err(|e| format!("checkpoint: bad float word: {e}"))
                })
                .collect::<Result<_, _>>()?;
            if floats.len() != nf {
                return Err(format!(
                    "checkpoint: section '{name}' declares {nf} floats, found {}",
                    floats.len()
                ));
            }
            if name.is_empty() || ckpt.section(&name).is_some() {
                return Err(format!(
                    "checkpoint: bad or duplicate section name '{name}'"
                ));
            }
            ckpt.sections.push(Section { name, ints, floats });
        }
        let n_trace: usize = next("trace")?
            .strip_prefix("trace ")
            .ok_or_else(|| "checkpoint: missing trace line".to_string())
            .and_then(|n| {
                n.parse()
                    .map_err(|e| format!("checkpoint: bad trace count: {e}"))
            })?;
        for _ in 0..n_trace {
            ckpt.trace.push(next("trace entry")?.to_string());
        }
        if lines.next().is_some() {
            return Err("checkpoint: trailing data after trace".to_string());
        }
        Ok(ckpt)
    }

    /// Write to `path`, creating parent directories.
    pub fn write_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        fs::write(path, self.encode())
    }

    /// Read and verify the checkpoint at `path`.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Checkpoint, String> {
        let path = path.as_ref();
        let text =
            fs::read_to_string(path).map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
        Checkpoint::decode(&text).map_err(|e| format!("checkpoint {}: {e}", path.display()))
    }
}

/// FNV-1a-64 fingerprint of the configuration facets a checkpoint depends on.
///
/// Resume refuses a checkpoint whose fingerprint disagrees with the live config —
/// continuing a run under a different model / cluster shape / fault schedule would
/// silently break the byte-identity guarantee. Timing-model and trace knobs are
/// deliberately excluded (they do not change the training state machine's inputs;
/// the trace sink is per-run anyway).
pub fn config_fingerprint(cfg: &TrainConfig) -> u64 {
    let facets = format!(
        "{:?}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}",
        cfg.model,
        cfg.workers,
        cfg.batch_size,
        cfg.iterations,
        cfg.seed,
        cfg.partition,
        cfg.non_iid_labels_per_worker,
        cfg.algorithm,
        cfg.optimizer,
        cfg.lr,
        cfg.delta_policy,
        cfg.rejoin_pull,
        cfg.comm_faults,
        cfg.ps_faults,
        cfg.ewma_window,
    );
    let conditions = format!("{:?}", cfg.conditions);
    wire::checksum(format!("{facets}#{conditions}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use selsync_nn::model::ModelKind;

    fn sample() -> Checkpoint {
        let mut ckpt = Checkpoint::new("sim", 0xDEAD_BEEF_0123_4567, 7);
        let mut ps = Section::new("ps");
        ps.push_f32s(&[1.0, -0.5, 3.25e-8, f32::MIN_POSITIVE]);
        ps.push_opt_int(Some(7));
        ckpt.add_section(ps);
        let mut w0 = Section::new("worker0");
        w0.push_usize(42);
        w0.push_f64(1.234_567_890_123_456_7);
        w0.push_opt_f32(None);
        w0.push_bool(true);
        w0.push_ints(&[3, 1, 4, 1, 5]);
        ckpt.add_section(w0);
        ckpt.trace = vec![
            "header\tversion=1".to_string(),
            "round\tround=0 delta=0.1".to_string(),
        ];
        ckpt
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let ckpt = sample();
        let text = ckpt.encode();
        let back = Checkpoint::decode(&text).expect("decode");
        assert_eq!(back, ckpt);
        // Idempotent: re-encoding the decoded value is byte-identical.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn section_reader_reads_back_in_write_order() {
        let ckpt = sample();
        let mut r = ckpt.read_section("worker0");
        assert_eq!(r.usize(), 42);
        assert_eq!(r.f64(), 1.234_567_890_123_456_7);
        assert_eq!(r.opt_f32(), None);
        assert!(r.bool());
        assert_eq!(r.ints(), vec![3, 1, 4, 1, 5]);
        r.finish();

        let mut r = ckpt.read_section("ps");
        let v = r.f32s();
        assert_eq!(v[3], f32::MIN_POSITIVE);
        assert_eq!(r.opt_int(), Some(7));
        r.finish();
    }

    #[test]
    #[should_panic]
    fn unread_state_is_a_shape_error() {
        let ckpt = sample();
        let r = ckpt.read_section("ps");
        r.finish(); // nothing consumed
    }

    #[test]
    fn non_finite_floats_survive_the_codec() {
        let mut ckpt = Checkpoint::new("threaded", 1, 0);
        let mut s = Section::new("odd");
        s.push_f32(f32::NAN);
        s.push_f32(f32::NEG_INFINITY);
        s.push_f32(-0.0);
        ckpt.add_section(s);
        let back = Checkpoint::decode(&ckpt.encode()).expect("decode");
        let odd = back.section("odd").unwrap();
        assert!(odd.floats[0].is_nan());
        assert_eq!(odd.floats[1], f32::NEG_INFINITY);
        assert_eq!(odd.floats[2].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn every_single_byte_substitution_is_rejected() {
        // Exhaustive over a small checkpoint: flip each byte through a few
        // replacement values and require decode to fail.
        let mut ckpt = Checkpoint::new("sim", 3, 1);
        let mut s = Section::new("a");
        s.push_f32(0.5);
        s.push_int(9);
        ckpt.add_section(s);
        ckpt.trace = vec!["round\tround=0".to_string()];
        let text = ckpt.encode();
        let bytes = text.as_bytes();
        for pos in 0..bytes.len() {
            for repl in [b'0', b'z', b'\n', 0x7f] {
                if bytes[pos] == repl {
                    continue;
                }
                let mut corrupt = bytes.to_vec();
                corrupt[pos] = repl;
                let corrupt = String::from_utf8_lossy(&corrupt).into_owned();
                assert!(
                    Checkpoint::decode(&corrupt).is_err(),
                    "substitution at byte {pos} ({:?} -> {:?}) was accepted",
                    bytes[pos] as char,
                    repl as char
                );
            }
        }
    }

    #[test]
    fn truncation_and_junk_are_rejected() {
        let text = sample().encode();
        for cut in [0, 10, text.len() / 2, text.len() - 1] {
            assert!(Checkpoint::decode(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert!(Checkpoint::decode(&format!("junk\n{text}")).is_err());
        assert!(Checkpoint::decode("").is_err());
    }

    #[test]
    fn file_round_trip_creates_directories() {
        let dir = std::env::temp_dir().join(format!("selsync-ckpt-test-{}", std::process::id()));
        let path = dir.join("nested/ckpt-7");
        let ckpt = sample();
        ckpt.write_file(&path).expect("write");
        let back = Checkpoint::read_file(&path).expect("read");
        assert_eq!(back, ckpt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tracks_training_facets_not_timing() {
        let cfg = TrainConfig::small(ModelKind::ResNetLike, 4);
        let base = config_fingerprint(&cfg);
        assert_eq!(base, config_fingerprint(&cfg.clone()), "deterministic");

        let mut seed = cfg.clone();
        seed.seed += 1;
        assert_ne!(base, config_fingerprint(&seed));

        let mut workers = cfg.clone();
        workers.workers = 8;
        assert_ne!(base, config_fingerprint(&workers));

        let mut faults = cfg.clone();
        faults.ps_faults = Some(selsync_comm::PsFaultSpec {
            seed: 5,
            windows: vec![(3, 2)],
            flaky: 0.0,
        });
        assert_ne!(base, config_fingerprint(&faults));

        // Timing-model knobs do not invalidate checkpoints.
        let mut timing = cfg.clone();
        timing.network.latency_s *= 2.0;
        assert_eq!(base, config_fingerprint(&timing));
    }
}

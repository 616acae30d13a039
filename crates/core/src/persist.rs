//! Versioned on-disk persistence for [`SignatureDb`] — the format
//! contract, its version table, and the migration chain.
//!
//! The paper's whole premise is that signatures are *indexable
//! artifacts* an operator stores and searches over time (§1, §4); a
//! monitoring daemon that cannot reload last week's database after a
//! software upgrade defeats that. Persisted state is therefore a
//! contract, not a debug dump:
//!
//! * every save is wrapped in a tagged **envelope** — a magic line, a
//!   format version, and a section table with byte lengths — so readers
//!   know exactly what they are holding before parsing a byte of
//!   payload;
//! * every historical layout has an entry in [`FORMAT_VERSIONS`] and a
//!   committed fixture under `tests/fixtures/` that locks it in
//!   forever;
//! * [`load`] migrates any supported version forward, one
//!   version-to-version migration function at a time, so a database
//!   saved by release N−1 loads on release N with identical
//!   search/classify behaviour;
//! * the **bare unversioned JSON** that pre-envelope releases wrote
//!   (format version 0) is detected by the absence of the magic and
//!   adopted into the chain.
//!
//! # Envelope layout
//!
//! ```text
//! FMETERDB 5\n                                   ← magic + format version
//! {"format_version":5,"sections":[["model",N],…],"crc32":[…],"codec":["bin",…]}\n
//! <model bytes><corpus bytes><signatures bytes><index bytes><state bytes><sharding bytes>
//! ```
//!
//! The table carries each section's byte length, so a reader can skip,
//! split, or stream sections without parsing them. Section payloads are
//! looked up by *name*, so future versions may add or reorder sections
//! freely. Since v4 the header also carries one CRC32 per section
//! (parallel to the table); readers verify every checksum *before*
//! parsing a byte of payload, so a torn or bit-flipped save fails with
//! a precise [`FmeterError::CorruptEnvelope`] instead of a parse error
//! deep inside a section.
//!
//! Since v5 the header additionally carries one **codec tag** per
//! section: `"json"` payloads are self-contained JSON documents,
//! `"bin"` payloads use the length-prefixed little-endian codec of
//! [`fmeter_ir::codec`]. The heavy sections (model, corpus, signatures,
//! index) are binary — parsing hundreds of thousands of JSON float
//! literals dominated checkpoint loads — while the small, operator-
//! inspectable `state` and `sharding` sections stay JSON. The byte-level
//! wire format per section is documented in `docs/PERSISTENCE.md`.
//!
//! Loading stays lazy: section payloads are kept as **raw bytes** and
//! only parsed when (and if) their decoder runs. A migration that
//! rewrites the few-hundred-byte `state` section never pays a parse of
//! the megabytes of corpus sitting next to it; the full-corpus sections
//! are each decoded exactly once, directly into their target types, by
//! the final decode. (The version-0 shim is the exception: bare JSON
//! has no section table to slice, so adopting it parses the whole
//! save.)
//!
//! See `docs/PERSISTENCE.md` in the repository for the narrative
//! version of this contract, including a worked save→upgrade→load
//! example.

use std::io::{Read, Write};

use fmeter_ir::codec::BinCodec;
use fmeter_ir::{Corpus, InvertedIndex, TfIdfModel};
use serde::{Deserialize, Serialize, Value};

use crate::{FmeterError, RefitPolicy, Signature, SignatureDb, VacuumPolicy};

/// First bytes of every enveloped save. A file that does not start with
/// this is treated as format version 0 (pre-envelope bare JSON).
pub const MAGIC: &str = "FMETERDB";

/// The format version [`SignatureDb::save`] writes.
pub const CURRENT_FORMAT_VERSION: u32 = 6;

/// One entry of the on-disk format history.
#[derive(Debug, Clone, Copy)]
pub struct FormatVersion {
    /// The version tag (what the magic line carries).
    pub version: u32,
    /// What this layout contains / what changed relative to the
    /// previous version.
    pub summary: &'static str,
}

/// Every on-disk layout ever written, oldest first. Each entry is
/// locked in by a committed fixture under `tests/fixtures/`; changing
/// the serialized layout requires appending a new entry here, a
/// migration from the previous version, and a new fixture — the
/// `persistence_formats` integration test fails otherwise.
pub const FORMAT_VERSIONS: &[FormatVersion] = &[
    FormatVersion {
        version: 0,
        summary: "bare unversioned JSON of the whole database struct (pre-envelope \
                  releases); detected by the absence of the magic and adopted as v1",
    },
    FormatVersion {
        version: 1,
        summary: "first enveloped layout: model / corpus / signatures / index / state \
                  sections, state carrying the incremental-ingest epoch bookkeeping \
                  (live set, per-doc epochs, refit policy, mutation counter)",
    },
    FormatVersion {
        version: 2,
        summary: "state section gains the vacuum policy and the lifetime vacuum counter",
    },
    FormatVersion {
        version: 3,
        summary: "new `sharding` section carrying the SignatureService shard layout \
                  (shard count); every other section is unchanged",
    },
    FormatVersion {
        version: 4,
        summary: "the envelope header gains a `crc32` array (one checksum per \
                  section, parallel to the section table), verified on load before \
                  any payload is parsed; section payloads are byte-identical to v3",
    },
    FormatVersion {
        version: 5,
        summary: "the header gains a `codec` array tagging each section `json` or \
                  `bin`; the model / corpus / signatures / index payloads switch \
                  to the length-prefixed little-endian binary codec, the state and \
                  sharding sections stay JSON, checksums are unchanged",
    },
    FormatVersion {
        version: 6,
        summary: "the index section gains block-max metadata (block size, per-term \
                  block offsets, per-block max impacts) and the quantization \
                  extension (mode tag, per-term scale/offset, u8 impacts); every \
                  other section is byte-identical to v5",
    },
];

const SEC_MODEL: &str = "model";
const SEC_CORPUS: &str = "corpus";
const SEC_SIGNATURES: &str = "signatures";
const SEC_INDEX: &str = "index";
const SEC_STATE: &str = "state";
const SEC_SHARDING: &str = "sharding";

/// How one envelope section's payload bytes are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionCodec {
    /// A self-contained JSON document (every section before v5; the
    /// small `state` / `sharding` sections in v5 and later).
    Json,
    /// The length-prefixed little-endian codec of [`fmeter_ir::codec`]
    /// (the heavy sections in v5 and later).
    Binary,
}

impl SectionCodec {
    /// The tag this codec carries in the header's `codec` array.
    pub fn tag(self) -> &'static str {
        match self {
            SectionCodec::Json => "json",
            SectionCodec::Binary => "bin",
        }
    }

    fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "json" => Some(SectionCodec::Json),
            "bin" => Some(SectionCodec::Binary),
            _ => None,
        }
    }
}

/// The section table line that follows the magic line.
///
/// Serialization is hand-written (not derived) because `crc32` and
/// `codec` are *optional on read*: headers written before v4 / v5 do
/// not carry the fields and must keep parsing, while the vendored
/// derive treats every named field as required.
#[derive(Debug)]
struct EnvelopeHeader {
    format_version: u32,
    /// `(section name, payload length in bytes)` in payload order.
    sections: Vec<(String, usize)>,
    /// One CRC32 per section, parallel to `sections` (v4 and later).
    crc32: Option<Vec<u32>>,
    /// One codec tag per section, parallel to `sections` (v5 and later).
    codec: Option<Vec<String>>,
}

impl Serialize for EnvelopeHeader {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("format_version".to_string(), self.format_version.to_value()),
            ("sections".to_string(), self.sections.to_value()),
        ];
        if let Some(crcs) = &self.crc32 {
            pairs.push(("crc32".to_string(), crcs.to_value()));
        }
        if let Some(codecs) = &self.codec {
            pairs.push(("codec".to_string(), codecs.to_value()));
        }
        Value::Object(pairs)
    }
}

impl Deserialize for EnvelopeHeader {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let format_version = u32::from_value(v.get_field("format_version")?)?;
        let sections = Vec::<(String, usize)>::from_value(v.get_field("sections")?)?;
        let crc32 = match v.get_field("crc32") {
            Ok(field) => Some(Vec::<u32>::from_value(field)?),
            Err(_) => None,
        };
        let codec = match v.get_field("codec") {
            Ok(field) => Some(Vec::<String>::from_value(field)?),
            Err(_) => None,
        };
        Ok(EnvelopeHeader {
            format_version,
            sections,
            crc32,
            codec,
        })
    }
}

/// The `state` section as written by format version 1.
#[derive(Debug, Serialize, Deserialize)]
struct StateV1 {
    live: Vec<bool>,
    num_live: usize,
    epoch: u64,
    doc_epoch: Vec<u64>,
    refit_policy: RefitPolicy,
    mutations_since_refit: usize,
}

/// The `state` section as written by format version 2.
#[derive(Debug, Serialize, Deserialize)]
struct StateV2 {
    live: Vec<bool>,
    num_live: usize,
    epoch: u64,
    doc_epoch: Vec<u64>,
    refit_policy: RefitPolicy,
    mutations_since_refit: usize,
    vacuum_policy: VacuumPolicy,
    vacuums: u64,
}

/// The `sharding` section as written by format version 3: the
/// [`SignatureService`](crate::SignatureService) shard layout. A plain
/// [`SignatureDb::save`] writes `num_shards: 1` (one shard *is* the
/// flat layout), and a plain load simply ignores the section.
#[derive(Debug, Serialize, Deserialize)]
struct ShardingV3 {
    num_shards: usize,
}

/// One envelope section: the raw payload as sliced out of the file
/// (JSON text or binary bytes, per its codec tag), or a parsed value
/// tree once something rewrote it.
///
/// Sections stay [`Raw`](Section::Raw) / [`Bin`](Section::Bin) until
/// their decoder runs — a migration that touches only the small `state`
/// section leaves the full-corpus payloads unparsed, and the final
/// decode parses each of them exactly once, straight into its target
/// type.
enum Section {
    Raw(String),
    Parsed(Value),
    Bin(Vec<u8>),
}

/// An in-memory envelope: version + named sections (raw payload slices
/// until something parses them). The migration chain rewrites sections
/// in place until the version reaches [`CURRENT_FORMAT_VERSION`].
struct Envelope {
    version: u32,
    sections: Vec<(String, Section)>,
}

impl Envelope {
    fn section(&self, name: &str) -> Result<&Section, FmeterError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| FmeterError::Persist(format!("envelope is missing section `{name}`")))
    }

    fn replace(&mut self, name: &str, value: Value) {
        self.replace_with(name, Section::Parsed(value));
    }

    fn replace_with(&mut self, name: &str, section: Section) {
        match self.sections.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = section,
            None => self.sections.push((name.to_string(), section)),
        }
    }
}

fn persist_err(context: &str, e: impl std::fmt::Display) -> FmeterError {
    FmeterError::Persist(format!("{context}: {e}"))
}

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, FmeterError> {
    v.get_field(name)
        .map_err(|e| persist_err("legacy layout", e))
}

fn section_as<T: Deserialize>(env: &Envelope, name: &str) -> Result<T, FmeterError> {
    match env.section(name)? {
        // The lazy path: parse the payload string directly into the
        // target type, skipping the intermediate value tree entirely.
        Section::Raw(payload) => {
            serde_json::from_str(payload).map_err(|e| persist_err(&format!("section `{name}`"), e))
        }
        Section::Parsed(value) => {
            T::from_value(value).map_err(|e| persist_err(&format!("section `{name}`"), e))
        }
        Section::Bin(_) => Err(FmeterError::Persist(format!(
            "section `{name}` is binary but a JSON decoder was asked for it"
        ))),
    }
}

/// Like [`section_as`], for sections that may be carried by either
/// codec: binary payloads decode through [`BinCodec`], everything else
/// falls back to the JSON path.
fn section_bin_as<T: Deserialize + BinCodec>(env: &Envelope, name: &str) -> Result<T, FmeterError> {
    match env.section(name)? {
        Section::Bin(bytes) => fmeter_ir::codec::decode_from_slice(bytes)
            .map_err(|e| persist_err(&format!("section `{name}`"), e)),
        _ => section_as(env, name),
    }
}

// ---- writing ---------------------------------------------------------

/// Serialises `db` as on-disk format `version` (used by
/// [`SignatureDb::save`] / [`SignatureDb::save_as_version`] and the
/// [`SignatureService`](crate::SignatureService) save). Format v3 and
/// later also record the shard count; older versions drop it.
///
/// # Errors
///
/// Returns [`FmeterError::UnsupportedFormat`] for versions outside
/// [`FORMAT_VERSIONS`] and propagates I/O failures.
pub fn save<W: Write>(db: &SignatureDb, version: u32, writer: W) -> Result<(), FmeterError> {
    match version {
        0 => save_v0(db, writer),
        1..=CURRENT_FORMAT_VERSION => write_envelope(&encode(db, version), writer),
        found => Err(FmeterError::UnsupportedFormat {
            found,
            supported: CURRENT_FORMAT_VERSION,
        }),
    }
}

/// Every stored signature (the JSON layouts before v5).
fn signatures(db: &SignatureDb) -> Vec<Signature> {
    (0..db.num_slots()).map(|d| db.signature(d)).collect()
}

/// Liveness per slot (the state section's `live`).
fn liveness(db: &SignatureDb) -> Vec<bool> {
    (0..db.num_slots()).map(|d| db.is_live(d)).collect()
}

/// The pre-envelope layout: one bare JSON object holding every field of
/// the database struct as the old `#[derive(Serialize)]` emitted it.
fn save_v0<W: Write>(db: &SignatureDb, writer: W) -> Result<(), FmeterError> {
    let value = Value::Object(vec![
        ("model".to_string(), db.model.to_value()),
        ("signatures".to_string(), signatures(db).to_value()),
        (
            "index".to_string(),
            db.flat_piece().shard().index().to_value(),
        ),
        ("corpus".to_string(), db.corpus.to_value()),
        ("live".to_string(), liveness(db).to_value()),
        ("num_live".to_string(), db.len().to_value()),
        ("epoch".to_string(), db.epoch.to_value()),
        ("doc_epoch".to_string(), db.doc_epoch.to_value()),
        ("refit_policy".to_string(), db.refit_policy.to_value()),
        (
            "mutations_since_refit".to_string(),
            db.mutations_since_refit.to_value(),
        ),
    ]);
    serde_json::to_writer(writer, &value)?;
    Ok(())
}

fn encode(db: &SignatureDb, version: u32) -> Envelope {
    debug_assert!((1..=CURRENT_FORMAT_VERSION).contains(&version));
    let state = if version == 1 {
        StateV1 {
            live: liveness(db),
            num_live: db.len(),
            epoch: db.epoch,
            doc_epoch: db.doc_epoch.clone(),
            refit_policy: db.refit_policy,
            mutations_since_refit: db.mutations_since_refit,
        }
        .to_value()
    } else {
        StateV2 {
            live: liveness(db),
            num_live: db.len(),
            epoch: db.epoch,
            doc_epoch: db.doc_epoch.clone(),
            refit_policy: db.refit_policy,
            mutations_since_refit: db.mutations_since_refit,
            vacuum_policy: db.vacuum_policy,
            vacuums: db.vacuums,
        }
        .to_value()
    };
    // v5 and later carry the heavy sections in the binary codec; older
    // versions keep the JSON value trees their fixtures pin. Within the
    // binary era, v5 pins the legacy flat-postings index layout and v6
    // the block-max/quantization one.
    let flat = db.flat_piece();
    let index = flat.shard().index();
    let mut sections = if version >= 5 {
        let index_bytes = if version >= 6 {
            fmeter_ir::codec::encode_to_vec(index)
        } else {
            let mut out = Vec::new();
            index.encode_bin_legacy(&mut out);
            out
        };
        let mut signature_bytes = Vec::new();
        flat.encode_signatures(&mut signature_bytes);
        vec![
            (
                SEC_MODEL.to_string(),
                Section::Bin(fmeter_ir::codec::encode_to_vec(&db.model)),
            ),
            (
                SEC_CORPUS.to_string(),
                Section::Bin(fmeter_ir::codec::encode_to_vec(&db.corpus)),
            ),
            (SEC_SIGNATURES.to_string(), Section::Bin(signature_bytes)),
            (SEC_INDEX.to_string(), Section::Bin(index_bytes)),
            (SEC_STATE.to_string(), Section::Parsed(state)),
        ]
    } else {
        vec![
            (SEC_MODEL.to_string(), Section::Parsed(db.model.to_value())),
            (
                SEC_CORPUS.to_string(),
                Section::Parsed(db.corpus.to_value()),
            ),
            (
                SEC_SIGNATURES.to_string(),
                Section::Parsed(signatures(db).to_value()),
            ),
            (SEC_INDEX.to_string(), Section::Parsed(index.to_value())),
            (SEC_STATE.to_string(), Section::Parsed(state)),
        ]
    };
    if version >= 3 {
        sections.push((
            SEC_SHARDING.to_string(),
            Section::Parsed(
                ShardingV3 {
                    num_shards: db.num_shards(),
                }
                .to_value(),
            ),
        ));
    }
    Envelope { version, sections }
}

fn write_envelope<W: Write>(env: &Envelope, mut writer: W) -> Result<(), FmeterError> {
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(env.sections.len());
    let mut codecs = Vec::with_capacity(env.sections.len());
    let mut table = Vec::with_capacity(env.sections.len());
    for (name, section) in &env.sections {
        let (bytes, codec) = match section {
            Section::Raw(payload) => (payload.clone().into_bytes(), SectionCodec::Json),
            Section::Parsed(value) => (
                serde_json::to_string(value)?.into_bytes(),
                SectionCodec::Json,
            ),
            Section::Bin(payload) => (payload.clone(), SectionCodec::Binary),
        };
        debug_assert!(
            env.version >= 5 || codec == SectionCodec::Json,
            "pre-v5 envelopes cannot carry binary sections"
        );
        table.push((name.clone(), bytes.len()));
        codecs.push(codec.tag().to_string());
        payloads.push(bytes);
    }
    // v4 headers bind every payload to a checksum, v5 headers tag every
    // payload with its codec; older versions keep the exact header
    // shape their fixtures pin.
    let crc32 = (env.version >= 4).then(|| payloads.iter().map(|p| crate::wal::crc32(p)).collect());
    let header = EnvelopeHeader {
        format_version: env.version,
        sections: table,
        crc32,
        codec: (env.version >= 5).then_some(codecs),
    };
    writer.write_all(format!("{MAGIC} {}\n", env.version).as_bytes())?;
    writer.write_all(serde_json::to_string(&header)?.as_bytes())?;
    writer.write_all(b"\n")?;
    for payload in &payloads {
        writer.write_all(payload)?;
    }
    Ok(())
}

// ---- reading ---------------------------------------------------------

/// Peeks at serialized bytes and reports the on-disk format version:
/// `Some(v)` for an enveloped save, `None` when the bytes carry no
/// magic (i.e. a candidate version-0 bare-JSON save — or not a
/// database at all, which only a full [`load`] can tell).
pub fn detect_format_version(bytes: &[u8]) -> Option<u32> {
    let text = std::str::from_utf8(bytes.get(..64.min(bytes.len()))?).ok()?;
    let rest = text.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    rest.split('\n').next()?.trim().parse().ok()
}

/// One section as sliced out of a serialized envelope by
/// [`split_envelope`]: its name, codec tag, and raw payload bytes.
#[derive(Debug, Clone)]
pub struct RawSection {
    /// Section name from the table.
    pub name: String,
    /// How [`payload`](Self::payload) is encoded. Headers before v5
    /// carry no codec tags; their sections are implicitly JSON.
    pub codec: SectionCodec,
    /// The payload bytes, exactly as stored (checksum-verified).
    pub payload: Vec<u8>,
}

/// Splits a serialized envelope into its format version and named
/// section payloads, without deserialising any of them — the
/// introspection hook the layout-guard tests (and external tooling)
/// use.
///
/// # Errors
///
/// Returns [`FmeterError::Persist`] when the bytes are not a
/// well-formed envelope (version-0 saves have no envelope to split) and
/// [`FmeterError::CorruptEnvelope`] when a section is shorter than the
/// table declares (truncated / mid-write file) or fails its v4
/// checksum.
pub fn split_envelope(bytes: &[u8]) -> Result<(u32, Vec<RawSection>), FmeterError> {
    let (version, header, body) = parse_envelope_frame(bytes)?;
    // `codec` is optional only for pre-v5 headers (all-JSON layouts); a
    // v5+ header without it cannot say how to parse its payloads.
    let codecs = match &header.codec {
        None if version >= 5 => {
            return Err(FmeterError::Persist(format!(
                "format version {version} header carries no per-section codec tags"
            )));
        }
        None => vec![SectionCodec::Json; header.sections.len()],
        Some(tags) => {
            if tags.len() != header.sections.len() {
                return Err(FmeterError::Persist(format!(
                    "header carries {} codec tags for {} sections",
                    tags.len(),
                    header.sections.len()
                )));
            }
            tags.iter()
                .map(|t| {
                    SectionCodec::from_tag(t).ok_or_else(|| {
                        FmeterError::Persist(format!("unknown section codec tag `{t}`"))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    let mut offset = 0usize;
    let mut sections = Vec::with_capacity(header.sections.len());
    for ((name, len), codec) in header.sections.into_iter().zip(codecs) {
        let payload = body.get(offset..offset + len).ok_or_else(|| {
            // A section that overruns the file is the signature of a
            // save truncated mid-write: report exactly which section
            // came up short and by how much.
            FmeterError::CorruptEnvelope {
                section: name.clone(),
                expected: len as u64,
                got: body.len().saturating_sub(offset) as u64,
            }
        })?;
        sections.push(RawSection {
            name,
            codec,
            payload: payload.to_vec(),
        });
        offset += len;
    }
    if offset != body.len() {
        return Err(FmeterError::Persist(format!(
            "{} trailing bytes after the last section",
            body.len() - offset
        )));
    }
    // `crc32` is optional only for pre-v4 headers; a v4+ header without
    // it has lost data (or was tampered with) — loading it would mean
    // silently skipping checksum verification, so reject it instead.
    if header.crc32.is_none() && version >= 4 {
        return Err(FmeterError::Persist(format!(
            "format version {version} header carries no per-section checksums"
        )));
    }
    if let Some(crcs) = &header.crc32 {
        if crcs.len() != sections.len() {
            return Err(FmeterError::Persist(format!(
                "header carries {} checksums for {} sections",
                crcs.len(),
                sections.len()
            )));
        }
        for (section, &stored) in sections.iter().zip(crcs) {
            let computed = crate::wal::crc32(&section.payload);
            if computed != stored {
                return Err(FmeterError::CorruptEnvelope {
                    section: section.name.clone(),
                    expected: u64::from(stored),
                    got: u64::from(computed),
                });
            }
        }
    }
    Ok((version, sections))
}

/// Parses the magic and header lines, returning `(version, header,
/// section payload bytes)`. The two header lines are ASCII by
/// construction; the body may be arbitrary bytes (binary sections).
fn parse_envelope_frame(bytes: &[u8]) -> Result<(u32, EnvelopeHeader, &[u8]), FmeterError> {
    let rest = bytes
        .strip_prefix(MAGIC.as_bytes())
        .and_then(|t| t.strip_prefix(b" "))
        .ok_or_else(|| FmeterError::Persist("missing FMETERDB magic".to_string()))?;
    let nl = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| FmeterError::Persist("truncated magic line".to_string()))?;
    let version: u32 = std::str::from_utf8(&rest[..nl])
        .map_err(|e| persist_err("unparsable format version", e))?
        .trim()
        .parse()
        .map_err(|e| persist_err("unparsable format version", e))?;
    let rest = &rest[nl + 1..];
    let nl = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| FmeterError::Persist("truncated section table".to_string()))?;
    let header_line =
        std::str::from_utf8(&rest[..nl]).map_err(|e| persist_err("section table", e))?;
    let header: EnvelopeHeader = serde_json::from_str(header_line)?;
    if header.format_version != version {
        return Err(FmeterError::Persist(format!(
            "magic line says version {version} but the section table says {}",
            header.format_version
        )));
    }
    Ok((version, header, &rest[nl + 1..]))
}

fn read_envelope(bytes: &[u8]) -> Result<Envelope, FmeterError> {
    let (version, sections) = split_envelope(bytes)?;
    if version == 0 || version > CURRENT_FORMAT_VERSION {
        return Err(FmeterError::UnsupportedFormat {
            found: version,
            supported: CURRENT_FORMAT_VERSION,
        });
    }
    // Keep every payload raw: nothing is parsed until a migration or
    // the final decode actually needs the section.
    let sections = sections
        .into_iter()
        .map(|s| {
            let section = match s.codec {
                SectionCodec::Json => Section::Raw(String::from_utf8(s.payload).map_err(|e| {
                    persist_err(&format!("section `{}` is not UTF-8 JSON", s.name), e)
                })?),
                SectionCodec::Binary => Section::Bin(s.payload),
            };
            Ok((s.name, section))
        })
        .collect::<Result<Vec<_>, FmeterError>>()?;
    Ok(Envelope { version, sections })
}

/// Adopts a pre-envelope (format version 0) bare-JSON save: the old
/// all-in-one object is split into the v1 sections, after which the
/// ordinary migration chain takes over.
fn adopt_legacy(text: &str) -> Result<Envelope, FmeterError> {
    let value: Value = serde_json::from_str(text)?;
    let state = Value::Object(vec![
        ("live".to_string(), field(&value, "live")?.clone()),
        ("num_live".to_string(), field(&value, "num_live")?.clone()),
        ("epoch".to_string(), field(&value, "epoch")?.clone()),
        ("doc_epoch".to_string(), field(&value, "doc_epoch")?.clone()),
        (
            "refit_policy".to_string(),
            field(&value, "refit_policy")?.clone(),
        ),
        (
            "mutations_since_refit".to_string(),
            field(&value, "mutations_since_refit")?.clone(),
        ),
    ]);
    Ok(Envelope {
        version: 1,
        sections: vec![
            (
                SEC_MODEL.to_string(),
                Section::Parsed(field(&value, "model")?.clone()),
            ),
            (
                SEC_CORPUS.to_string(),
                Section::Parsed(field(&value, "corpus")?.clone()),
            ),
            (
                SEC_SIGNATURES.to_string(),
                Section::Parsed(field(&value, "signatures")?.clone()),
            ),
            (
                SEC_INDEX.to_string(),
                Section::Parsed(field(&value, "index")?.clone()),
            ),
            (SEC_STATE.to_string(), Section::Parsed(state)),
        ],
    })
}

// ---- migrations ------------------------------------------------------

/// One step of the migration chain: rewrites an envelope from the keyed
/// version to the next one.
type Migration = fn(&mut Envelope) -> Result<(), FmeterError>;

/// `(from_version, migration)` — every supported version below
/// [`CURRENT_FORMAT_VERSION`] must have an entry; [`load`] applies them
/// in sequence.
const MIGRATIONS: &[(u32, Migration)] = &[
    (1, migrate_v1_to_v2),
    (2, migrate_v2_to_v3),
    (3, migrate_v3_to_v4),
    (4, migrate_v4_to_v5),
    (5, migrate_v5_to_v6),
];

/// v1 → v2: the state section gains the vacuum policy (default:
/// [`VacuumPolicy::Never`]) and the lifetime vacuum counter (0 — a v1
/// database never vacuumed).
fn migrate_v1_to_v2(env: &mut Envelope) -> Result<(), FmeterError> {
    let v1: StateV1 = section_as(env, SEC_STATE)?;
    let v2 = StateV2 {
        live: v1.live,
        num_live: v1.num_live,
        epoch: v1.epoch,
        doc_epoch: v1.doc_epoch,
        refit_policy: v1.refit_policy,
        mutations_since_refit: v1.mutations_since_refit,
        vacuum_policy: VacuumPolicy::Never,
        vacuums: 0,
    };
    env.replace(SEC_STATE, v2.to_value());
    Ok(())
}

/// v2 → v3: a `sharding` section appears, defaulting to one shard (the
/// flat layout every pre-service save implicitly was). Note this
/// migration parses nothing: it only appends a new section, leaving the
/// corpus-sized payloads as the raw strings the reader sliced.
fn migrate_v2_to_v3(env: &mut Envelope) -> Result<(), FmeterError> {
    env.replace(SEC_SHARDING, ShardingV3 { num_shards: 1 }.to_value());
    Ok(())
}

/// v3 → v4: the envelope *header* gains per-section checksums. Checksums
/// are a property of the serialized frame — computed by the writer,
/// verified by the reader before any parsing — so the in-memory envelope
/// of a v3 file needs no rewriting at all: its sections were already
/// length-validated when sliced, and the next save will emit checksums.
fn migrate_v3_to_v4(_env: &mut Envelope) -> Result<(), FmeterError> {
    Ok(())
}

/// v4 → v5: the heavy sections switch from JSON to the length-prefixed
/// little-endian binary codec. This is the one migration that *does*
/// parse the corpus-sized payloads — it re-encodes them — which is
/// exactly the work a v4 load was already paying; every subsequent save
/// and load runs on the binary path.
fn migrate_v4_to_v5(env: &mut Envelope) -> Result<(), FmeterError> {
    let model: TfIdfModel = section_as(env, SEC_MODEL)?;
    env.replace_with(
        SEC_MODEL,
        Section::Bin(fmeter_ir::codec::encode_to_vec(&model)),
    );
    let corpus: Corpus = section_as(env, SEC_CORPUS)?;
    env.replace_with(
        SEC_CORPUS,
        Section::Bin(fmeter_ir::codec::encode_to_vec(&corpus)),
    );
    let signatures: Vec<Signature> = section_as(env, SEC_SIGNATURES)?;
    env.replace_with(
        SEC_SIGNATURES,
        Section::Bin(fmeter_ir::codec::encode_to_vec(&signatures)),
    );
    let index: InvertedIndex = section_as(env, SEC_INDEX)?;
    let mut index_bytes = Vec::new();
    index.encode_bin_legacy(&mut index_bytes);
    env.replace_with(SEC_INDEX, Section::Bin(index_bytes));
    Ok(())
}

/// v5 → v6: the index section gains block-max metadata and the
/// quantization extension. Only the index payload is rewritten — it is
/// decoded from the legacy flat layout (which rebuilds the block
/// metadata from the postings) and re-encoded in the v6 layout; every
/// other section's bytes pass through untouched.
fn migrate_v5_to_v6(env: &mut Envelope) -> Result<(), FmeterError> {
    let bytes = match env.section(SEC_INDEX)? {
        Section::Bin(bytes) => bytes.clone(),
        _ => {
            return Err(FmeterError::Persist(
                "v5 index section is not binary".to_string(),
            ))
        }
    };
    let mut r = fmeter_ir::codec::Reader::new(&bytes);
    let index = InvertedIndex::decode_bin_legacy(&mut r)
        .and_then(|idx| r.finish().map(|()| idx))
        .map_err(|e| FmeterError::Persist(format!("migrating index section to v6: {e}")))?;
    env.replace_with(
        SEC_INDEX,
        Section::Bin(fmeter_ir::codec::encode_to_vec(&index)),
    );
    Ok(())
}

fn migrate_to_current(env: &mut Envelope) -> Result<(), FmeterError> {
    while env.version < CURRENT_FORMAT_VERSION {
        let from = env.version;
        let (_, migration) = MIGRATIONS.iter().find(|(v, _)| *v == from).ok_or_else(|| {
            FmeterError::Persist(format!(
                "no migration registered from format version {from}"
            ))
        })?;
        migration(env)?;
        env.version += 1;
    }
    Ok(())
}

// ---- decoding --------------------------------------------------------

/// Reads a database from any supported on-disk format (used by
/// [`SignatureDb::load`]): envelope saves are version-checked and
/// migrated forward; magic-less bytes go through the version-0
/// bare-JSON shim first.
///
/// # Errors
///
/// Returns [`FmeterError::UnsupportedFormat`] for saves from newer
/// releases and [`FmeterError::Persist`] for malformed or inconsistent
/// payloads.
pub fn load<R: Read>(reader: R) -> Result<SignatureDb, FmeterError> {
    Ok(load_sharded(reader)?.0)
}

/// Like [`load`], additionally returning the persisted
/// [`SignatureService`](crate::SignatureService) shard layout (the
/// database itself comes back as one piece). Saves older than format
/// v3 (which could not carry a layout) come back as one shard.
///
/// # Errors
///
/// Returns [`FmeterError::UnsupportedFormat`] for saves from newer
/// releases and [`FmeterError::Persist`] for malformed or inconsistent
/// payloads.
pub fn load_sharded<R: Read>(mut reader: R) -> Result<(SignatureDb, usize), FmeterError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let mut env = if bytes.starts_with(MAGIC.as_bytes()) {
        read_envelope(&bytes)?
    } else {
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| persist_err("pre-envelope save is not UTF-8 JSON", e))?;
        adopt_legacy(text)?
    };
    migrate_to_current(&mut env)?;
    let sharding: ShardingV3 = section_as(&env, SEC_SHARDING)?;
    if sharding.num_shards == 0 {
        return Err(FmeterError::Persist(
            "sharding section declares zero shards".to_string(),
        ));
    }
    Ok((decode(&env)?, sharding.num_shards))
}

/// Rebuilds the database from a current-version envelope, cross-checking
/// the sections against each other so a corrupted (or hand-edited) file
/// fails loudly instead of producing a database that panics later.
fn decode(env: &Envelope) -> Result<SignatureDb, FmeterError> {
    debug_assert_eq!(env.version, CURRENT_FORMAT_VERSION);
    let model: TfIdfModel = section_bin_as(env, SEC_MODEL)?;
    let corpus: Corpus = section_bin_as(env, SEC_CORPUS)?;
    let signatures: Vec<Signature> = section_bin_as(env, SEC_SIGNATURES)?;
    let index: InvertedIndex = section_bin_as(env, SEC_INDEX)?;
    let state: StateV2 = section_as(env, SEC_STATE)?;
    let slots = signatures.len();
    let consistent = corpus.len() == slots
        && state.live.len() == slots
        && state.doc_epoch.len() == slots
        && index.len() == slots
        && state.num_live == state.live.iter().filter(|&&l| l).count()
        && model.dim() == corpus.dim()
        && model.dim() == index.dim();
    if !consistent {
        return Err(FmeterError::Persist(format!(
            "inconsistent sections: {slots} signature slots vs {} corpus docs, \
             {} live flags, {} doc epochs, {} indexed docs (num_live {})",
            corpus.len(),
            state.live.len(),
            state.doc_epoch.len(),
            index.len(),
            state.num_live,
        )));
    }
    // The index carries its own tombstones; they must agree slot-by-slot
    // with the state section, or search would keep serving docs the
    // database says are dead (and vice versa).
    if let Some(d) = (0..slots).find(|&d| index.is_live(d) != state.live[d]) {
        return Err(FmeterError::Persist(format!(
            "inconsistent sections: doc {d} is {} in the state section but {} in the index",
            if state.live[d] { "live" } else { "dead" },
            if index.is_live(d) { "live" } else { "dead" },
        )));
    }
    Ok(SignatureDb {
        model,
        corpus,
        epoch: state.epoch,
        doc_epoch: state.doc_epoch,
        refit_policy: state.refit_policy,
        mutations_since_refit: state.mutations_since_refit,
        vacuum_policy: state.vacuum_policy,
        vacuums: state.vacuums,
        last_vacuum: None,
        // Warm-start clustering state is process-local, like the vacuum
        // remap above: a loaded database reclusters cold once.
        cluster_cache: None,
        router: fmeter_ir::ShardRouter::new(1),
        pieces: vec![SignatureDb::piece_from_parts(index, signatures)?],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RawSignature;
    use fmeter_ir::TermCounts;
    use fmeter_kernel_sim::Nanos;

    /// A small two-class database with tombstones and a bumped epoch —
    /// non-trivial state in every section.
    fn sample_db() -> SignatureDb {
        let mut raw = Vec::new();
        for i in 0..5u64 {
            raw.push(RawSignature {
                counts: vec![40 + i, 30, 20, 10, 0, 0, 1, 0],
                started_at: Nanos(i * 100),
                ended_at: Nanos((i + 1) * 100),
                label: Some("a".into()),
            });
            raw.push(RawSignature {
                counts: vec![0, 1, 0, 0, 50, 40 + i, 30, 20],
                started_at: Nanos(i * 100),
                ended_at: Nanos((i + 1) * 100),
                label: Some("b".into()),
            });
        }
        let mut db = SignatureDb::build(&raw).unwrap();
        db.set_refit_policy(RefitPolicy::EveryN(1000));
        db.remove(3).unwrap();
        db.refit();
        db.insert(&RawSignature {
            counts: vec![44, 31, 19, 12, 0, 0, 1, 0],
            started_at: Nanos(2000),
            ended_at: Nanos(2100),
            label: Some("a".into()),
        })
        .unwrap();
        db
    }

    /// Byte-level `replacen(.., 1)`: the envelope body is not UTF-8 once
    /// sections are binary, so tests patch the ASCII header bytes of a
    /// save directly instead of round-tripping through `String`.
    fn replace_once(bytes: &[u8], needle: &[u8], replacement: &[u8]) -> Vec<u8> {
        let pos = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("needle present in envelope bytes");
        let mut out = Vec::with_capacity(bytes.len() - needle.len() + replacement.len());
        out.extend_from_slice(&bytes[..pos]);
        out.extend_from_slice(replacement);
        out.extend_from_slice(&bytes[pos + needle.len()..]);
        out
    }

    fn assert_equivalent(a: &SignatureDb, b: &SignatureDb) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.num_slots(), b.num_slots());
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.mutations_since_refit(), b.mutations_since_refit());
        assert_eq!(a.refit_policy(), b.refit_policy());
        for d in 0..a.num_slots() {
            assert_eq!(a.is_live(d), b.is_live(d));
            assert_eq!(a.doc_epoch(d), b.doc_epoch(d));
            assert_eq!(a.signature(d).vector, b.signature(d).vector);
        }
        let q = TermCounts::from_dense(&[42, 30, 20, 11, 0, 0, 1, 0]);
        let ha = a.search(&q, 4).unwrap();
        let hb = b.search(&q, 4).unwrap();
        assert_eq!(ha.len(), hb.len());
        for ((_, s1, d1), (_, s2, d2)) in ha.iter().zip(&hb) {
            assert_eq!(s1.label, s2.label);
            assert_eq!(d1, d2);
        }
        assert_eq!(a.classify(&q, 3).unwrap(), b.classify(&q, 3).unwrap());
    }

    #[test]
    fn current_version_round_trips() {
        let mut db = sample_db();
        db.set_vacuum_policy(VacuumPolicy::DeadFraction {
            max_dead_fraction: 0.5,
            min_dead: 4,
        });
        let mut bytes = Vec::new();
        db.save(&mut bytes).unwrap();
        assert_eq!(
            detect_format_version(&bytes),
            Some(CURRENT_FORMAT_VERSION),
            "save must write the current envelope"
        );
        let restored = SignatureDb::load(&bytes[..]).unwrap();
        assert_equivalent(&db, &restored);
        assert_eq!(restored.vacuum_policy(), db.vacuum_policy());
        assert_eq!(restored.vacuums(), db.vacuums());
        assert!(restored.last_vacuum().is_none(), "remaps are not persisted");
    }

    #[test]
    fn every_historical_version_loads_via_migration() {
        let db = sample_db();
        for spec in FORMAT_VERSIONS {
            let mut bytes = Vec::new();
            db.save_as_version(spec.version, &mut bytes).unwrap();
            if spec.version == 0 {
                assert_eq!(detect_format_version(&bytes), None, "v0 has no magic");
            } else {
                assert_eq!(detect_format_version(&bytes), Some(spec.version));
            }
            let restored = SignatureDb::load(&bytes[..])
                .unwrap_or_else(|e| panic!("v{} failed to load: {e}", spec.version));
            assert_equivalent(&db, &restored);
            // Fields the older layouts cannot carry come back as defaults.
            assert_eq!(restored.vacuum_policy(), VacuumPolicy::Never);
            assert_eq!(restored.vacuums(), 0);
        }
    }

    #[test]
    fn future_versions_are_rejected() {
        let db = sample_db();
        let mut bytes = Vec::new();
        db.save(&mut bytes).unwrap();
        let future = replace_once(
            &bytes,
            format!("{MAGIC} {CURRENT_FORMAT_VERSION}\n").as_bytes(),
            format!("{MAGIC} 99\n").as_bytes(),
        );
        let future = replace_once(
            &future,
            format!("\"format_version\":{CURRENT_FORMAT_VERSION}").as_bytes(),
            b"\"format_version\":99",
        );
        match SignatureDb::load(&future[..]) {
            Err(FmeterError::UnsupportedFormat { found, supported }) => {
                assert_eq!(found, 99);
                assert_eq!(supported, CURRENT_FORMAT_VERSION);
            }
            other => panic!("expected UnsupportedFormat, got {other:?}"),
        }
        // Writing an unknown version is rejected the same way.
        assert!(matches!(
            db.save_as_version(99, &mut Vec::new()),
            Err(FmeterError::UnsupportedFormat { found: 99, .. })
        ));
    }

    #[test]
    fn corrupt_envelopes_error_cleanly() {
        let db = sample_db();
        let mut bytes = Vec::new();
        db.save(&mut bytes).unwrap();
        // Truncated mid-section.
        assert!(SignatureDb::load(&bytes[..bytes.len() / 2]).is_err());
        // Magic line and table disagree on the version.
        let skewed = replace_once(
            &bytes,
            format!("{MAGIC} {CURRENT_FORMAT_VERSION}\n").as_bytes(),
            format!("{MAGIC} 1\n").as_bytes(),
        );
        assert!(SignatureDb::load(&skewed[..]).is_err());
        // Garbage, empty, and non-database JSON all fail like before.
        assert!(SignatureDb::load(&b"not json"[..]).is_err());
        assert!(SignatureDb::load(&b""[..]).is_err());
        assert!(SignatureDb::load(&b"{\"model\": 3}"[..]).is_err());
    }

    #[test]
    fn truncation_at_every_section_boundary_names_the_section() {
        // Cut a current-version save at the start and the middle of
        // every section: the load must fail with CorruptEnvelope naming
        // exactly the first section that came up short.
        let db = sample_db();
        let mut bytes = Vec::new();
        db.save(&mut bytes).unwrap();
        let (_, sections) = split_envelope(&bytes).unwrap();
        let body_len: usize = sections.iter().map(|s| s.payload.len()).sum();
        let mut offset = bytes.len() - body_len;
        for section in &sections {
            let name = &section.name;
            for cut in [offset, offset + section.payload.len() / 2] {
                match SignatureDb::load(&bytes[..cut]) {
                    Err(FmeterError::CorruptEnvelope {
                        section,
                        expected,
                        got,
                    }) => {
                        assert_eq!(&section, name, "cut at byte {cut}");
                        assert!(got < expected, "cut at byte {cut}: {got} vs {expected}");
                    }
                    other => {
                        panic!("cut at {cut}: expected CorruptEnvelope `{name}`, got {other:?}")
                    }
                }
            }
            offset += section.payload.len();
        }
    }

    #[test]
    fn bit_flips_in_section_payloads_fail_the_checksum() {
        let db = sample_db();
        let mut bytes = Vec::new();
        db.save(&mut bytes).unwrap();
        let (_, sections) = split_envelope(&bytes).unwrap();
        let body_len: usize = sections.iter().map(|s| s.payload.len()).sum();
        let mut offset = bytes.len() - body_len;
        for section in &sections {
            let name = &section.name;
            let mut corrupt = bytes.clone();
            corrupt[offset + section.payload.len() / 2] ^= 0x01;
            match SignatureDb::load(&corrupt[..]) {
                Err(FmeterError::CorruptEnvelope { section, .. }) => {
                    assert_eq!(&section, name, "flip inside `{name}` blamed `{section}`")
                }
                other => panic!("flip inside `{name}`: expected CorruptEnvelope, got {other:?}"),
            }
            offset += section.payload.len();
        }
    }

    #[test]
    fn v4_header_without_checksums_is_rejected() {
        // A v4+ header that lost its `crc32` field must not load with
        // verification silently disabled — only genuinely pre-v4
        // headers may omit checksums. (A v4 save is all-JSON, so string
        // surgery on the whole file is still safe here.)
        let db = sample_db();
        let mut bytes = Vec::new();
        db.save_as_version(4, &mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let at = text.find(",\"crc32\":").expect("v4 header carries crc32");
        let end = at + text[at..].find(']').expect("crc32 array closes") + 1;
        let stripped = format!("{}{}", &text[..at], &text[end..]);
        match SignatureDb::load(stripped.as_bytes()) {
            Err(FmeterError::Persist(msg)) => {
                assert!(msg.contains("checksums"), "unexpected message: {msg}")
            }
            other => panic!("expected Persist error, got {other:?}"),
        }
    }

    #[test]
    fn v5_header_without_codec_tags_is_rejected() {
        // Same contract for the v5 `codec` array: a header that lost it
        // cannot say how to parse its payloads, so it must be rejected
        // rather than guessed at.
        let db = sample_db();
        let mut bytes = Vec::new();
        db.save(&mut bytes).unwrap();
        let header_end = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .map(|(i, _)| i)
            .expect("envelope has two header lines");
        let header = std::str::from_utf8(&bytes[..header_end]).expect("header is ASCII");
        let at = header.find(",\"codec\":").expect("v5 header carries codec");
        let end = at + header[at..].find(']').expect("codec array closes") + 1;
        let mut stripped = Vec::new();
        stripped.extend_from_slice(&bytes[..at]);
        stripped.extend_from_slice(&bytes[end..]);
        match SignatureDb::load(&stripped[..]) {
            Err(FmeterError::Persist(msg)) => {
                assert!(msg.contains("codec"), "unexpected message: {msg}")
            }
            other => panic!("expected Persist error, got {other:?}"),
        }
        // An unknown codec tag is rejected too, not treated as JSON.
        let unknown = replace_once(&bytes, b"\"bin\"", b"\"zst\"");
        match SignatureDb::load(&unknown[..]) {
            Err(FmeterError::Persist(msg)) => {
                assert!(msg.contains("zst"), "unexpected message: {msg}")
            }
            other => panic!("expected Persist error, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_state_and_index_tombstones_are_rejected() {
        // A self-consistent state section (flags and num_live agree) that
        // disagrees with the index's own tombstones must not load: the
        // database would search docs it reports as dead.
        let db = sample_db();
        let mut env = encode(&db, CURRENT_FORMAT_VERSION);
        let mut state: StateV2 = section_as(&env, SEC_STATE).unwrap();
        let victim = state.live.iter().position(|&l| l).unwrap();
        state.live[victim] = false;
        state.num_live -= 1;
        env.replace(SEC_STATE, state.to_value());
        let mut bytes = Vec::new();
        write_envelope(&env, &mut bytes).unwrap();
        match SignatureDb::load(&bytes[..]) {
            Err(FmeterError::Persist(msg)) => {
                assert!(msg.contains("state section"), "unexpected message: {msg}")
            }
            other => panic!("expected a Persist error, got {other:?}"),
        }
    }

    #[test]
    fn split_envelope_exposes_the_section_table() {
        let db = sample_db();
        let mut bytes = Vec::new();
        db.save(&mut bytes).unwrap();
        let (version, sections) = split_envelope(&bytes).unwrap();
        assert_eq!(version, CURRENT_FORMAT_VERSION);
        let names: Vec<&str> = sections.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                SEC_MODEL,
                SEC_CORPUS,
                SEC_SIGNATURES,
                SEC_INDEX,
                SEC_STATE,
                SEC_SHARDING
            ]
        );
        // The heavy sections are binary, the small ones JSON — and every
        // payload is self-contained under its tagged codec.
        for section in &sections {
            let expected = match section.name.as_str() {
                SEC_STATE | SEC_SHARDING => SectionCodec::Json,
                _ => SectionCodec::Binary,
            };
            assert_eq!(
                section.codec, expected,
                "section `{}` carries the wrong codec tag",
                section.name
            );
            match section.codec {
                SectionCodec::Json => {
                    let text = std::str::from_utf8(&section.payload)
                        .unwrap_or_else(|e| panic!("section `{}` not UTF-8: {e}", section.name));
                    serde_json::from_str::<Value>(text).unwrap_or_else(|e| {
                        panic!("section `{}` is not valid JSON: {e}", section.name)
                    });
                }
                SectionCodec::Binary => {
                    let mut r = fmeter_ir::codec::Reader::new(&section.payload);
                    match section.name.as_str() {
                        SEC_MODEL => drop(TfIdfModel::decode_bin(&mut r).unwrap()),
                        SEC_CORPUS => drop(Corpus::decode_bin(&mut r).unwrap()),
                        SEC_SIGNATURES => drop(Vec::<Signature>::decode_bin(&mut r).unwrap()),
                        SEC_INDEX => drop(InvertedIndex::decode_bin(&mut r).unwrap()),
                        other => panic!("unexpected binary section `{other}`"),
                    }
                    r.finish()
                        .unwrap_or_else(|e| panic!("section `{}`: {e}", section.name));
                }
            }
        }
    }

    #[test]
    fn sharded_saves_round_trip_the_layout() {
        let db = sample_db();
        let mut sharded = db.clone();
        sharded.reshard(4);
        let mut bytes = Vec::new();
        save(&sharded, CURRENT_FORMAT_VERSION, &mut bytes).unwrap();
        let (restored, num_shards) = load_sharded(&bytes[..]).unwrap();
        assert_eq!(num_shards, 4);
        assert_equivalent(&db, &restored);
        // A plain load reads the same bytes and just drops the layout.
        let plain = SignatureDb::load(&bytes[..]).unwrap();
        assert_equivalent(&db, &plain);
        // Saves from releases that predate the layout come back as one
        // shard via the v2→v3 migration.
        let mut old = Vec::new();
        db.save_as_version(2, &mut old).unwrap();
        let (_, migrated_shards) = load_sharded(&old[..]).unwrap();
        assert_eq!(migrated_shards, 1);
        // A zero-shard layout is rejected, not served.
        let mut env = encode(&sharded, CURRENT_FORMAT_VERSION);
        env.replace(SEC_SHARDING, ShardingV3 { num_shards: 0 }.to_value());
        let mut bad = Vec::new();
        write_envelope(&env, &mut bad).unwrap();
        assert!(load_sharded(&bad[..]).is_err());
    }

    #[test]
    fn migrations_leave_untouched_sections_raw() {
        // The v1→v2→v3→v4 chain only rewrites `state` and appends
        // `sharding`; every corpus-sized section must still be a Raw
        // slice when those steps finish (the lazy-parse contract). The
        // v4→v5 step is the designed exception: it re-encodes the heavy
        // sections into the binary codec, after which they are Bin.
        let db = sample_db();
        let mut bytes = Vec::new();
        db.save_as_version(1, &mut bytes).unwrap();
        let mut env = read_envelope(&bytes).unwrap();
        while env.version < 4 {
            let from = env.version;
            let (_, migration) = MIGRATIONS.iter().find(|(v, _)| *v == from).unwrap();
            migration(&mut env).unwrap();
            env.version += 1;
        }
        for name in [SEC_MODEL, SEC_CORPUS, SEC_SIGNATURES, SEC_INDEX] {
            assert!(
                matches!(env.section(name).unwrap(), Section::Raw(_)),
                "section `{name}` was parsed by a migration that does not touch it"
            );
        }
        migrate_to_current(&mut env).unwrap();
        assert_eq!(env.version, CURRENT_FORMAT_VERSION);
        for name in [SEC_MODEL, SEC_CORPUS, SEC_SIGNATURES, SEC_INDEX] {
            assert!(
                matches!(env.section(name).unwrap(), Section::Bin(_)),
                "section `{name}` was not re-encoded by the v4→v5 migration"
            );
        }
        assert!(matches!(
            env.section(SEC_STATE).unwrap(),
            Section::Parsed(_)
        ));
        assert!(decode(&env).is_ok());
    }

    #[test]
    fn version_table_and_migrations_stay_in_sync() {
        // Every version in the table except the newest must either be
        // the legacy shim (0) or have a registered migration.
        for spec in FORMAT_VERSIONS {
            if spec.version == 0 || spec.version == CURRENT_FORMAT_VERSION {
                continue;
            }
            assert!(
                MIGRATIONS.iter().any(|(v, _)| *v == spec.version),
                "format version {} has no migration to {}",
                spec.version,
                spec.version + 1
            );
        }
        assert_eq!(
            FORMAT_VERSIONS.last().map(|s| s.version),
            Some(CURRENT_FORMAT_VERSION),
            "the version table must end at the current version"
        );
    }
}

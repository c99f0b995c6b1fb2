//! Weight-store persistence: snapshot a store's prepared operands to a file, reload
//! them at startup, and re-register the same weights with **zero** decompositions.
//!
//! Preparation (decompose → plan → pack) is the expensive half of the TASD economics;
//! a [`WeightStore`] already makes it once per changed band within a process. This
//! module extends that across restarts: [`save_snapshot`] serializes every live
//! operand's name, configuration, shape, row hashes and bands, and [`load_snapshot`]
//! hands them back to a store as the source its `register` reuses bands from. A
//! restored operand is not resolvable until its weights are registered again — the
//! snapshot holds prepared state, not weights — and a register of the same name,
//! configuration and shape shares every band whose rows hash as they did at save time.
//!
//! # Format (version 2)
//!
//! Little-endian throughout:
//!
//! ```text
//! magic            8 bytes  "TASDCACH"
//! version          u32      2
//! operand count    u32
//! per operand:
//!   name           u16 len + UTF-8
//!   config         u16 len + UTF-8, `TasdConfig` notation (e.g. "2:8+1:8")
//!   rows, cols     u32,u32  the operand's shape
//!   row hashes     u64 × rows
//!   per band (⌈rows / 64⌉ of them; band i holds rows 64·i .. min(64·(i+1), rows)):
//!     term count   u16
//!     per term:
//!       backend      u8       planned kernel: 0 dense, 1 csr, 2 n:m
//!       pattern      u8,u8    the term's N:M pattern (n, m)
//!       entry count  u64
//!       entries      (row u32, col u32, f32 bits u32) × count, row-major, band-local
//! checksum         u64      multiply-xor fold of every preceding byte
//! ```
//!
//! The term encoding is version 1's. The per-term backend byte replays the plan:
//! reloaded terms are re-packed for the *recorded* kernel, skipping the planner
//! entirely. Version 1 files (prepared-cache snapshots) load as a clean cold start.
//!
//! # Invalidation
//!
//! Loading is strictly best-effort: **any** defect — missing file, short read, bad
//! magic, unknown version, checksum mismatch, malformed name/config/pattern/term,
//! out-of-bounds entry, trailing bytes — yields [`LoadOutcome::Cold`] with a reason
//! and leaves the store exactly as it was. A cold start costs one decomposition per
//! band, never correctness. Snapshots are written to a sibling temp file and renamed
//! into place, so a crash mid-save cannot tear an existing snapshot.

use super::deploy::{band_ranges, zobrist_fold, SavedOperand};
use super::plan::BackendKind;
use super::prepared::PreparedSeries;
use super::WeightStore;
use crate::config::TasdConfig;
use crate::series::TasdSeries;
use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::Arc;
use tasd_tensor::hash::avalanche;
use tasd_tensor::{Matrix, NmPattern};

const MAGIC: [u8; 8] = *b"TASDCACH";
const VERSION: u32 = 2;

/// What [`save_snapshot`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Operands serialized.
    pub operands: usize,
    /// Bands serialized, across every operand.
    pub bands: usize,
    /// Snapshot size on disk, in bytes.
    pub bytes: usize,
}

/// How [`load_snapshot`] started the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The snapshot was intact; every operand was handed to the store. Registering the
    /// snapshotted weights again now decomposes nothing.
    Warm {
        /// Operands restored.
        operands: usize,
        /// Snapshot size read, in bytes.
        bytes: usize,
    },
    /// The snapshot was absent or defective; the store was left untouched and
    /// registers decompose as usual.
    Cold {
        /// What was wrong — for logs, never for control flow.
        reason: String,
    },
}

impl LoadOutcome {
    /// `true` for [`LoadOutcome::Warm`].
    pub fn is_warm(&self) -> bool {
        matches!(self, LoadOutcome::Warm { .. })
    }
}

/// Serializes every live operand of `store` — and every restored one not registered
/// since — to `path` (temp file + rename, so an existing snapshot is never torn). See
/// the [module docs](self) for the format.
///
/// # Errors
///
/// I/O errors from writing, plus `InvalidInput` for operands the format cannot carry
/// (dimensions beyond `u32`, names or configs beyond `u16` bytes).
pub fn save_snapshot(store: &WeightStore, path: &Path) -> io::Result<SnapshotStats> {
    let operands = store.saved_operands();
    let bytes = encode_operands(&operands)?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(SnapshotStats {
        operands: operands.len(),
        bands: operands.iter().map(|o| o.bands.len()).sum(),
        bytes: bytes.len(),
    })
}

/// Loads a snapshot written by [`save_snapshot`] and hands every operand to `store` as
/// a source `register` reuses bands from. Infallible by design: defects yield
/// [`LoadOutcome::Cold`] (see the [module docs](self) invalidation rules), never an
/// error and never a panic. A name the store already serves keeps its live generation.
pub fn load_snapshot(store: &WeightStore, path: &Path) -> LoadOutcome {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) => {
            return LoadOutcome::Cold {
                reason: format!("snapshot {}: {err}", path.display()),
            }
        }
    };
    let operands = match decode_operands(&bytes) {
        Ok(operands) => operands,
        Err(reason) => return LoadOutcome::Cold { reason },
    };
    let count = operands.len();
    store.restore(operands);
    LoadOutcome::Warm {
        operands: count,
        bytes: bytes.len(),
    }
}

/// Multiply-xor fold of `bytes` (8-byte chunks, zero-padded tail), finalized with the
/// same splitmix64 avalanche the fingerprints use.
fn checksum(bytes: &[u8]) -> u64 {
    const M: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = M ^ bytes.len() as u64;
    for chunk in bytes.chunks(8) {
        let mut lane = [0u8; 8];
        lane[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(lane)).wrapping_mul(M);
    }
    avalanche(h)
}

fn backend_byte(kind: BackendKind) -> u8 {
    match kind {
        BackendKind::Dense => 0,
        BackendKind::Csr => 1,
        BackendKind::Nm => 2,
    }
}

fn byte_backend(byte: u8) -> Result<BackendKind, String> {
    match byte {
        0 => Ok(BackendKind::Dense),
        1 => Ok(BackendKind::Csr),
        2 => Ok(BackendKind::Nm),
        other => Err(format!("snapshot: unknown backend byte {other}")),
    }
}

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn dim(&mut self, v: usize, what: &str) -> io::Result<()> {
        let v = u32::try_from(v)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, format!("{what} > u32")))?;
        self.u32(v);
        Ok(())
    }
    fn str16(&mut self, s: &str, what: &str) -> io::Result<()> {
        let len = u16::try_from(s.len()).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("{what} > u16 bytes"))
        })?;
        self.u16(len);
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Encodes `operands` into the version-2 snapshot format (checksum included). The
/// in-memory half of [`save_snapshot`], split out so tests can corrupt and re-decode
/// without a filesystem.
pub(crate) fn encode_operands(operands: &[Arc<SavedOperand>]) -> io::Result<Vec<u8>> {
    let mut enc = Enc { buf: Vec::new() };
    enc.buf.extend_from_slice(&MAGIC);
    enc.u32(VERSION);
    enc.dim(operands.len(), "operand count")?;
    for operand in operands {
        let (rows, cols) = operand.shape;
        enc.str16(&operand.name, "operand name")?;
        enc.str16(&operand.config.to_string(), "operand config")?;
        enc.dim(rows, "operand rows")?;
        enc.dim(cols, "operand cols")?;
        for &hash in &operand.row_hashes {
            enc.u64(hash);
        }
        for band in &operand.bands {
            let n_terms = u16::try_from(band.terms().len())
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "term count > u16"))?;
            enc.u16(n_terms);
            for (i, term) in band.series().terms().iter().enumerate() {
                enc.u8(backend_byte(band.terms()[i].backend()));
                let pattern = term.pattern();
                enc.u8(pattern.n() as u8);
                enc.u8(pattern.m() as u8);
                enc.u64(term.nnz() as u64);
                for row in 0..band.shape().0 {
                    for (col, value) in term.row_entries(row) {
                        enc.dim(row, "entry row")?;
                        enc.dim(col, "entry col")?;
                        enc.u32(value.to_bits());
                    }
                }
            }
        }
    }
    let sum = checksum(&enc.buf);
    enc.u64(sum);
    Ok(enc.buf)
}

struct Dec<'a> {
    rest: &'a [u8],
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.rest.len() < n {
            return Err(format!(
                "snapshot truncated at {what}: need {n} bytes, have {}",
                self.rest.len()
            ));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }
    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &str) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }
    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    fn str16(&mut self, what: &str) -> Result<&'a str, String> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| format!("snapshot: {what} is not UTF-8"))
    }
    fn config(&mut self, what: &str) -> Result<TasdConfig, String> {
        let text = self.str16(what)?;
        TasdConfig::parse(text).map_err(|err| format!("snapshot: bad {what} {text:?}: {err}"))
    }
}

/// Decodes a version-2 snapshot back into operands, fully re-validated: checksum
/// first, then every structural invariant (see the [module docs](self) invalidation
/// rules).
pub(crate) fn decode_operands(bytes: &[u8]) -> Result<Vec<SavedOperand>, String> {
    if bytes.len() < MAGIC.len() + 4 + 4 + 8 {
        return Err(format!("snapshot too short: {} bytes", bytes.len()));
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let recorded = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    let computed = checksum(body);
    if recorded != computed {
        return Err(format!(
            "snapshot checksum mismatch: recorded {recorded:#018x}, computed {computed:#018x}"
        ));
    }
    let mut dec = Dec { rest: body };
    if dec.take(MAGIC.len(), "magic")? != MAGIC {
        return Err("snapshot: bad magic (not a TASD snapshot)".to_string());
    }
    let version = dec.u32("version")?;
    if version != VERSION {
        return Err(format!(
            "snapshot version {version} unsupported (expected {VERSION})"
        ));
    }

    let operand_count = dec.u32("operand count")? as usize;
    let mut operands = Vec::with_capacity(operand_count.min(1024));
    for o in 0..operand_count {
        let name = dec.str16("operand name")?.to_string();
        let config = dec.config("operand config")?;
        let rows = dec.u32("operand rows")? as usize;
        let cols = dec.u32("operand cols")? as usize;
        rows.checked_mul(cols)
            .filter(|&n| n <= 1 << 32)
            .ok_or_else(|| format!("snapshot: operand {o} shape {rows}x{cols} is implausible"))?;
        let row_hashes = (0..rows)
            .map(|_| dec.u64("row hash"))
            .collect::<Result<Vec<u64>, String>>()?;
        let bands = band_ranges(rows)
            .map(|(r0, r1)| {
                let fingerprint = zobrist_fold(&row_hashes[r0..r1]);
                decode_band(&mut dec, (r1 - r0, cols), &config, fingerprint)
                    .map_err(|err| format!("snapshot: operand {o} rows {r0}..{r1}: {err}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        operands.push(SavedOperand {
            name,
            config,
            shape: (rows, cols),
            row_hashes,
            bands,
        });
    }
    if !dec.rest.is_empty() {
        return Err(format!(
            "snapshot: {} trailing bytes after the last operand",
            dec.rest.len()
        ));
    }
    Ok(operands)
}

/// Decodes one band's terms and re-packs them for their recorded kernels.
fn decode_band(
    dec: &mut Dec<'_>,
    (rows, cols): (usize, usize),
    config: &TasdConfig,
    fingerprint: u64,
) -> Result<Arc<PreparedSeries>, String> {
    let n_terms = dec.u16("term count")? as usize;
    let mut kinds = Vec::with_capacity(n_terms);
    let mut terms = Vec::with_capacity(n_terms);
    for t in 0..n_terms {
        kinds.push(byte_backend(dec.u8("backend")?)?);
        let n = dec.u8("pattern n")? as usize;
        let m = dec.u8("pattern m")? as usize;
        let pattern = NmPattern::new(n, m).map_err(|err| format!("term {t} pattern: {err}"))?;
        let entry_count = dec.u64("entry count")? as usize;
        if entry_count > rows * cols {
            return Err(format!(
                "term {t} claims {entry_count} entries in a {rows}x{cols} band"
            ));
        }
        let mut dense = Matrix::zeros(rows, cols);
        for e in 0..entry_count {
            let row = dec.u32("entry row")? as usize;
            let col = dec.u32("entry col")? as usize;
            let bits = dec.u32("entry value")?;
            if row >= rows || col >= cols {
                return Err(format!(
                    "term {t} entry {e} at ({row}, {col}) is out of bounds"
                ));
            }
            dense[(row, col)] = f32::from_bits(bits);
        }
        let term = tasd_tensor::NmCompressed::from_dense_strict(&dense, pattern)
            .map_err(|err| format!("term {t} does not conform: {err}"))?;
        term.validate()
            .map_err(|err| format!("term {t} invalid: {err}"))?;
        terms.push(term);
    }
    let raw = Arc::new(TasdSeries::new((rows, cols), config.clone(), terms));
    // Replay the recorded per-term plan instead of re-running the planner: packing
    // follows the exact kernels the snapshotting engine chose.
    let next = Cell::new(0usize);
    let prepared = PreparedSeries::prepare(raw, fingerprint, |_, _, _| {
        let i = next.get();
        next.set(i + 1);
        kinds[i]
    });
    Ok(Arc::new(prepared))
}

#[cfg(test)]
mod tests {
    use super::super::{BatchRequest, ExecutionEngine};
    use super::*;
    use std::path::PathBuf;
    use tasd_tensor::MatrixGenerator;

    fn cfg() -> TasdConfig {
        TasdConfig::parse("2:8+1:8").unwrap()
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tasd-persist-{}-{name}.bin", std::process::id()))
    }

    fn store() -> WeightStore {
        WeightStore::new(Arc::new(ExecutionEngine::builder().build()))
    }

    fn weights() -> [(&'static str, Matrix); 2] {
        let mut gen = MatrixGenerator::seeded(21);
        // 130 rows: two full bands and a ragged one. "w" saves last, and dense, so its
        // last term ends on an entry.
        [
            ("a", gen.sparse_normal(130, 32, 0.75)),
            ("w", gen.sparse_normal(64, 16, 0.0)),
        ]
    }

    /// A store serving both operands of [`weights`].
    fn warm_store() -> WeightStore {
        let store = store();
        for (name, a) in weights() {
            store.register(name, a, cfg()).unwrap();
        }
        store
    }

    fn answer(store: &WeightStore, name: &str, b: &Matrix) -> Vec<u32> {
        let request = store.resolve(name).unwrap().request(b.clone());
        let output = store
            .engine()
            .submit(vec![request])
            .remove(0)
            .output
            .unwrap();
        output.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn snapshot_roundtrip_restores_every_entry() {
        let first = warm_store();
        let b = MatrixGenerator::seeded(22).normal(32, 5, 0.0, 1.0);
        let before = answer(&first, "a", &b);
        let path = temp_path("roundtrip");
        let stats = save_snapshot(&first, &path).unwrap();
        assert_eq!((stats.operands, stats.bands), (2, 4));
        assert!(stats.bytes > 0);

        let restarted = store();
        let outcome = load_snapshot(&restarted, &path);
        assert_eq!(
            outcome,
            LoadOutcome::Warm {
                operands: 2,
                bytes: stats.bytes
            }
        );
        assert!(
            restarted.resolve("a").is_none(),
            "a snapshot holds no weights"
        );
        assert_eq!(
            restarted.bytes_resident(),
            first.bytes_resident(),
            "every band is resident again"
        );
        // Re-registering the same weights is the warm-restart contract: zero
        // decompositions, and the same bits.
        for (name, a) in weights() {
            assert_eq!(restarted.register(name, a, cfg()).unwrap().prepares, 0);
        }
        assert_eq!(restarted.engine().prep_stats().prepares, 0);
        assert_eq!(answer(&restarted, "a", &b), before);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reloaded_series_are_bitwise_identical() {
        let store = warm_store();
        let operands = store.saved_operands();
        let reloaded = decode_operands(&encode_operands(&operands).unwrap()).unwrap();
        assert_eq!(reloaded.len(), operands.len());
        for (original, restored) in operands.iter().zip(&reloaded) {
            assert_eq!(original.name, restored.name);
            assert_eq!(original.config, restored.config);
            assert_eq!(original.shape, restored.shape);
            assert_eq!(original.row_hashes, restored.row_hashes);
            assert_eq!(original.bands.len(), restored.bands.len());
            for (a, b) in original.bands.iter().zip(&restored.bands) {
                assert_eq!(a.fingerprint(), b.fingerprint());
                assert_eq!(a.shape(), b.shape());
                assert_eq!(a.summary(), b.summary(), "plans must replay");
                let (a, b) = (a.series().reconstruct(), b.series().reconstruct());
                assert_eq!(a.as_slice(), b.as_slice(), "reconstruction must be bitwise");
            }
        }
    }

    #[test]
    fn every_corruption_is_a_clean_cold_start() {
        let path = temp_path("corrupt");
        save_snapshot(&warm_store(), &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        let cold_reason = |bytes: &[u8], label: &str| {
            let store = store();
            std::fs::write(&path, bytes).unwrap();
            match load_snapshot(&store, &path) {
                LoadOutcome::Cold { reason } => {
                    assert_eq!(store.bytes_resident(), 0, "{label}: store untouched");
                    reason
                }
                LoadOutcome::Warm { .. } => panic!("{label}: corrupt snapshot loaded warm"),
            }
        };
        // Re-seals a body after a structural edit, so only validation can reject it.
        let resealed = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut body = good[..good.len() - 8].to_vec();
            edit(&mut body);
            let sum = checksum(&body);
            body.extend_from_slice(&sum.to_le_bytes());
            body
        };

        // Missing file.
        std::fs::remove_file(&path).unwrap();
        assert!(!load_snapshot(&store(), &path).is_warm());

        // Empty, truncated, bit-flipped, bad magic, future version.
        assert!(cold_reason(&[], "empty").contains("too short"));
        assert!(cold_reason(&good[..good.len() / 2], "truncated").contains("checksum"));
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(cold_reason(&flipped, "bit flip").contains("checksum"));
        let mut magic = good.clone();
        magic[0] = b'X';
        assert!(cold_reason(&magic, "magic").contains("checksum"));
        let mut version = good.clone();
        version[8] = 9;
        assert!(cold_reason(&version, "version").contains("checksum"));
        // A version-1 (prepared-cache) snapshot is a clean cold start.
        let v1 = resealed(&|body| body[8..12].copy_from_slice(&1u32.to_le_bytes()));
        assert!(cold_reason(&v1, "version 1").contains("version 1 unsupported"));
        // The last four body bytes are the last entry's value; the eight before them,
        // its position. Point its row out of the band.
        let moved = resealed(&|body| {
            let len = body.len();
            body[len - 12..len - 8].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        assert!(cold_reason(&moved, "entry row").contains("out of bounds"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn loading_never_displaces_live_entries() {
        let store = warm_store();
        let path = temp_path("displace");
        save_snapshot(&store, &path).unwrap();
        // The store keeps serving between save and (re)load; re-loading its own
        // snapshot must keep the live generations, not shadow or double-count them.
        let live = store.resolve("w").unwrap();
        let resident = store.bytes_resident();
        assert!(load_snapshot(&store, &path).is_warm());
        assert!(Arc::ptr_eq(&live, &store.resolve("w").unwrap()));
        assert_eq!(store.bytes_resident(), resident);
        for (name, a) in weights() {
            assert_eq!(
                store.register(name, a, cfg()).unwrap().prepares,
                0,
                "still shared"
            );
        }
        // A request built before the reload still runs the bands it captured.
        let b = MatrixGenerator::seeded(23).normal(16, 2, 0.0, 1.0);
        let response = store.engine().submit(vec![live.request(b.clone())]);
        let whole = BatchRequest::decomposed(Arc::clone(live.matrix()), cfg(), b);
        let expected = ExecutionEngine::builder().build().submit(vec![whole]);
        assert_eq!(
            response[0].output.as_ref().unwrap(),
            expected[0].output.as_ref().unwrap()
        );
        std::fs::remove_file(&path).unwrap();
    }
}

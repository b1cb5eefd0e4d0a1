//! The program attribute database.
//!
//! The compile-time half of the hybrid framework (paper Figure 2): for every
//! outlined target region the compiler stores the static features the
//! models need — the instruction loadout skeleton, the IPDA symbolic stride
//! expressions, and the list of runtime parameters whose values must be
//! collected at the program point where the region is reached. The runtime
//! queries the database by region name, binds the missing values, and
//! evaluates the models.

use crate::fleet::DeviceId;
use crate::selector::Selector;
use crate::snapshot::SnapshotError;
use hetsel_ipda::{analyze_cached, KernelAccessInfo};
use hetsel_ir::{Kernel, Snap, SymbolTable};
use hetsel_models::{CompiledCpuModel, CompiledGpuModel, CostModel};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Dense identifier of one region in an [`AttributeDatabase`], assigned in
/// region-name order at compile time. The decision cache keys on this `u32`
/// instead of the region's name, so a cache probe neither hashes nor clones
/// a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

/// Compile-time attributes of one target region.
#[derive(Debug, Clone)]
pub struct RegionAttributes {
    /// Region name, shared: decisions carry a clone of this `Arc`, so
    /// copying a cached decision out of the cache never allocates.
    pub name: Arc<str>,
    /// The outlined region (the CPU and GPU versions share this IR). Shared
    /// with every compiled model of the region: a snapshot stores and
    /// decodes the kernel once per region.
    pub kernel: Arc<Kernel>,
    /// IPDA results: symbolic inter-thread strides per access (shared with
    /// the compiled models below).
    pub access_info: Arc<KernelAccessInfo>,
    /// Runtime parameters the models need bound before evaluation.
    pub required_params: Vec<String>,
    /// Interner over `required_params`, in declaration order: slot `i`
    /// corresponds to `required_params[i]`. The decision cache resolves a
    /// binding through this table to build its dense slot key.
    pub symbols: SymbolTable,
    /// The host model, fully compiled: evaluation only binds runtime values.
    pub cpu_model: CompiledCpuModel,
    /// The *primary* accelerator's model, fully compiled. (Compiled from
    /// the platform's own accelerator parameters under a host-only fleet,
    /// whose decisions never consult it.)
    pub gpu_model: CompiledGpuModel,
    /// Compiled models for the fleet's remaining accelerators, in fleet id
    /// order: `extra_accel_models[i]` belongs to `DeviceId(i + 2)`. Empty
    /// for the classic pair.
    pub extra_accel_models: Vec<CompiledGpuModel>,
}

impl RegionAttributes {
    /// The compiled model of fleet accelerator `index` (0 is the primary
    /// `gpu_model`, `i` is `extra_accel_models[i - 1]`), or `None` when
    /// the region carries no model for it.
    pub(crate) fn accel_model(&self, index: usize) -> Option<&CompiledGpuModel> {
        match index {
            0 => Some(&self.gpu_model),
            i => self.extra_accel_models.get(i - 1),
        }
    }
}

/// A borrowed compiled model, resolved per `(RegionId, DeviceId)` by
/// [`AttributeDatabase::model_for`]: the host's CPU model or one
/// accelerator's GPU model.
#[derive(Debug, Clone, Copy)]
pub enum CompiledModelRef<'a> {
    /// The region's compiled host model.
    Host(&'a CompiledCpuModel),
    /// The compiled model of one registered accelerator.
    Accelerator(&'a CompiledGpuModel),
}

/// The database: a dense, name-ordered vector of region slots plus a
/// name → [`RegionId`] index. Lookups by name pay one `BTreeMap` probe;
/// everything downstream (the decision cache in particular) addresses
/// regions by their dense id.
///
/// A compiled database holds every region materialized. A database restored
/// from a snapshot holds validated-but-undecoded region blobs and
/// materializes each region on first touch: the container's checksum,
/// version and fleet fingerprint were verified up front, so per-region
/// decoding is pure deserialization work — and the cold path to a process's
/// *first* decision decodes exactly one region instead of the whole suite.
#[derive(Debug, Clone, Default)]
pub struct AttributeDatabase {
    /// Region slots in region-name order; index = `RegionId`.
    slots: Vec<RegionSlot>,
    index: BTreeMap<String, RegionId>,
}

/// One region: either materialized attributes (compiled databases start this
/// way) or a still-encoded snapshot blob decoded on first touch.
#[derive(Debug, Clone, Default)]
struct RegionSlot {
    /// The region's name, known without decoding (it lives in the snapshot's
    /// region index).
    name: Arc<str>,
    /// The decoded attributes, once somebody asked for them.
    ready: OnceLock<RegionAttributes>,
    /// The encoded blob this slot decodes from; `None` for compiled
    /// databases, whose `ready` is always set.
    raw: Option<RawRegion>,
}

/// A region's still-encoded bytes: a range of the (shared) snapshot payload.
#[derive(Debug, Clone)]
struct RawRegion {
    payload: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl AttributeDatabase {
    /// "Compilation": runs the static analyses over every region — IPDA,
    /// the MCA scheduling analysis, the instruction-loadout lowering — and
    /// stores the resulting attribute records, including both models in
    /// compiled form. `selector` supplies the model configuration (platform
    /// parameters, thread count, trip-count and coalescing modes) the
    /// compiled models are specialised to.
    pub fn compile(kernels: &[Kernel], selector: &Selector) -> AttributeDatabase {
        // One GPU cost model per registered fleet accelerator; the pair
        // view (`gpu_model`) is the primary one, falling back to the
        // platform's own parameters under a host-only fleet.
        let (cpu_cost, mut gpu_costs) = selector.fleet_cost_models();
        let primary_gpu_cost = if gpu_costs.is_empty() {
            selector.cost_models().1
        } else {
            gpu_costs.remove(0)
        };
        // Build through a name-keyed map first: duplicate names overwrite
        // (last kernel wins) and the final dense layout is name-ordered.
        let mut by_name = BTreeMap::new();
        for k in kernels {
            debug_assert_eq!(k.validate(), Ok(()));
            let required_params = k.params();
            let mut symbols = SymbolTable::new();
            for p in &required_params {
                symbols.intern(p);
            }
            by_name.insert(
                k.name.clone(),
                RegionAttributes {
                    name: Arc::from(k.name.as_str()),
                    required_params,
                    symbols,
                    access_info: analyze_cached(k),
                    cpu_model: cpu_cost.compile(k),
                    gpu_model: primary_gpu_cost.compile(k),
                    extra_accel_models: gpu_costs.iter().map(|g| g.compile(k)).collect(),
                    kernel: Arc::new(k.clone()),
                },
            );
        }
        let mut slots = Vec::with_capacity(by_name.len());
        let mut index = BTreeMap::new();
        for (name, attrs) in by_name {
            index.insert(name, RegionId(slots.len() as u32));
            slots.push(RegionSlot {
                name: Arc::clone(&attrs.name),
                ready: OnceLock::from(attrs),
                raw: None,
            });
        }
        AttributeDatabase { slots, index }
    }

    /// Materializes a slot: returns the decoded attributes, decoding the
    /// snapshot blob on first touch. Decoding sits behind the container's
    /// verified checksum, so a failure here means the *writer* produced an
    /// internally inconsistent blob — a bug, not disk corruption. It is
    /// still never a panic: the region reports as absent (decisions return
    /// `None`, never a wrong model) and a counter records the event.
    fn materialize<'a>(&self, slot: &'a RegionSlot) -> Option<&'a RegionAttributes> {
        if let Some(ready) = slot.ready.get() {
            return Some(ready);
        }
        let raw = slot.raw.as_ref()?;
        match decode_region(&slot.name, &raw.payload[raw.start..raw.end]) {
            Ok(attrs) => Some(slot.ready.get_or_init(|| attrs)),
            Err(_) => {
                hetsel_obs::static_counter!("hetsel.core.snapshot.region_decode_error").inc();
                None
            }
        }
    }

    /// Looks up a region by name.
    pub fn region(&self, name: &str) -> Option<&RegionAttributes> {
        self.region_entry(name).map(|(_, attrs)| attrs)
    }

    /// Looks up a region by name, returning its dense id alongside the
    /// attributes — the decision cache's entry point.
    pub fn region_entry(&self, name: &str) -> Option<(RegionId, &RegionAttributes)> {
        let id = *self.index.get(name)?;
        Some((id, self.materialize(&self.slots[id.0 as usize])?))
    }

    /// Looks up a region by its dense id.
    pub fn region_by_id(&self, id: RegionId) -> Option<&RegionAttributes> {
        self.slots
            .get(id.0 as usize)
            .and_then(|slot| self.materialize(slot))
    }

    /// The compiled model stored for `(region, device)`: the host's CPU
    /// model for [`DeviceId::HOST`], the primary accelerator's GPU model
    /// for id 1, and the extra accelerators' models beyond that. `None`
    /// for an unknown region or a device id the database carries no model
    /// for.
    pub fn model_for(&self, region: RegionId, device: DeviceId) -> Option<CompiledModelRef<'_>> {
        let attrs = self.region_by_id(region)?;
        match device.0 {
            0 => Some(CompiledModelRef::Host(&attrs.cpu_model)),
            n => attrs
                .accel_model(usize::from(n) - 1)
                .map(CompiledModelRef::Accelerator),
        }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the database is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates regions in name order, materializing any still-encoded
    /// slots along the way.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RegionAttributes)> {
        self.slots
            .iter()
            .filter_map(move |slot| self.materialize(slot).map(|r| (&*slot.name, r)))
    }

    /// Serializes every compiled artifact — bytecode, interners, loadouts,
    /// IPDA results, one model per fleet device — into the versioned binary
    /// container of [`crate::snapshot`], fingerprinted against `selector`'s
    /// model configuration. [`AttributeDatabase::load`] under the same
    /// configuration restores a database whose decisions are bit-for-bit
    /// those of the freshly compiled one.
    pub fn dump<W: std::io::Write>(
        &self,
        selector: &Selector,
        w: &mut W,
    ) -> Result<(), SnapshotError> {
        // Payload layout (v2): a region index — count, then one
        // `(name, blob_len)` entry per region in name order — followed by
        // the per-region blobs, concatenated in the same order. Each blob
        // decodes independently, which is what lets the loader defer a
        // region's decode until its first use.
        let mut sw = hetsel_ir::SnapWriter::new();
        sw.put_usize(self.slots.len());
        let mut blobs = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            // A still-encoded slot's bytes are already exactly what dump
            // would produce; copy them through without decoding.
            let blob = match (slot.ready.get(), &slot.raw) {
                (None, Some(raw)) => raw.payload[raw.start..raw.end].to_vec(),
                _ => {
                    let attrs = self.materialize(slot).ok_or(SnapshotError::Format(
                        hetsel_ir::SnapError::Malformed("undecodable region blob"),
                    ))?;
                    encode_region(attrs)
                }
            };
            sw.put_str(&slot.name);
            sw.put_usize(blob.len());
            blobs.push(blob);
        }
        for blob in &blobs {
            sw.put_raw(blob);
        }
        let container = hetsel_ir::snap::seal(
            hetsel_ir::snap::PAYLOAD_ATTRIBUTE_DB,
            selector.model_fingerprint(),
            sw.bytes(),
        );
        w.write_all(&container)?;
        Ok(())
    }

    /// Restores a database from a snapshot produced by
    /// [`AttributeDatabase::dump`]. Validates the container (magic, version,
    /// kind, checksum) and that the snapshot's fleet fingerprint matches
    /// `selector`'s current model configuration; any mismatch, truncation or
    /// corruption is a typed [`SnapshotError`] — never a panic, never a
    /// silently wrong model. Region blobs are *not* decoded here: each
    /// region materializes on first touch (seeding the IPDA memo with its
    /// stored analysis as it does), so the load itself costs one checksum
    /// pass plus the region index.
    pub fn load<R: std::io::Read>(
        selector: &Selector,
        r: &mut R,
    ) -> Result<AttributeDatabase, SnapshotError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        AttributeDatabase::from_snapshot_bytes(selector, &bytes)
    }

    /// [`AttributeDatabase::load`] over an in-memory container.
    pub fn from_snapshot_bytes(
        selector: &Selector,
        bytes: &[u8],
    ) -> Result<AttributeDatabase, SnapshotError> {
        let payload = hetsel_ir::snap::open(
            bytes,
            hetsel_ir::snap::PAYLOAD_ATTRIBUTE_DB,
            Some(selector.model_fingerprint()),
        )?;
        let mut rd = hetsel_ir::SnapReader::new(payload);
        let count = rd.get_len()?;
        let mut names: Vec<Arc<str>> = Vec::with_capacity(count);
        let mut lens: Vec<usize> = Vec::with_capacity(count);
        for _ in 0..count {
            let name = rd.get_str()?;
            if let Some(prev) = names.last() {
                // Strict name order is the dense-id invariant; it also rules
                // out duplicates in one check.
                if **prev >= *name {
                    return Err(
                        hetsel_ir::SnapError::Malformed("region index not in name order").into(),
                    );
                }
            }
            names.push(Arc::from(name));
            lens.push(rd.get_len()?);
        }
        if rd.remaining() != lens.iter().sum::<usize>() {
            return Err(hetsel_ir::SnapError::Truncated.into());
        }
        let blob_base = payload.len() - rd.remaining();
        let payload: Arc<[u8]> = Arc::from(payload);
        let mut slots = Vec::with_capacity(count);
        let mut index = BTreeMap::new();
        let mut start = blob_base;
        for (name, len) in names.into_iter().zip(lens) {
            index.insert(name.to_string(), RegionId(slots.len() as u32));
            slots.push(RegionSlot {
                name,
                ready: OnceLock::new(),
                raw: Some(RawRegion {
                    payload: Arc::clone(&payload),
                    start,
                    end: start + len,
                }),
            });
            start += len;
        }
        hetsel_obs::static_counter!("hetsel.core.snapshot.load_ok").inc();
        hetsel_obs::static_gauge!("hetsel.core.snapshot.bytes").set(bytes.len() as i64);
        Ok(AttributeDatabase { slots, index })
    }

    /// Loads the database from `path` if a valid snapshot for `selector`'s
    /// configuration is there; otherwise compiles from `kernels` and
    /// (best-effort) writes a fresh snapshot back for the next process. The
    /// returned error, if any, is why the snapshot path was not taken —
    /// `None` means the load succeeded.
    pub fn load_or_compile(
        path: &Path,
        kernels: &[Kernel],
        selector: &Selector,
    ) -> (AttributeDatabase, Option<SnapshotError>) {
        let fallback = match std::fs::read(path) {
            Ok(bytes) => match AttributeDatabase::from_snapshot_bytes(selector, &bytes) {
                Ok(db) => return (db, None),
                Err(e) => e,
            },
            Err(e) => SnapshotError::Io(e.to_string()),
        };
        hetsel_obs::static_counter!("hetsel.core.snapshot.fallback").inc();
        let db = AttributeDatabase::compile(kernels, selector);
        let mut buf = Vec::new();
        if db.dump(selector, &mut buf).is_ok() {
            // Best-effort: a read-only snapshot directory degrades to
            // compile-every-time, not to a failure.
            let _ = std::fs::write(path, &buf);
        }
        (db, Some(fallback))
    }

    /// The persistable summary of the database (what an object file's
    /// attribute section would carry).
    pub fn export(&self) -> DatabaseExport {
        DatabaseExport {
            regions: self
                .iter()
                .map(|(_, r)| RegionExport {
                    name: r.kernel.name.clone(),
                    required_params: r.required_params.clone(),
                    parallel_dims: r.kernel.parallel_loops().len() as u32,
                    accesses: r
                        .access_info
                        .accesses
                        .iter()
                        .map(|a| AccessExport {
                            array: r.kernel.array(a.array).name.clone(),
                            is_store: a.is_store,
                            thread_stride: format!("{}", a.thread_stride),
                            depth: a.enclosing.len() as u32,
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Serializable view of the attribute database.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct DatabaseExport {
    /// One record per region.
    pub regions: Vec<RegionExport>,
}

/// Serializable record of one region's static features.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct RegionExport {
    /// Region name.
    pub name: String,
    /// Runtime parameters required.
    pub required_params: Vec<String>,
    /// Number of parallel (collapse) dimensions.
    pub parallel_dims: u32,
    /// Per-access symbolic strides.
    pub accesses: Vec<AccessExport>,
}

/// Serializable record of one access's IPDA result.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct AccessExport {
    /// Array name.
    pub array: String,
    /// True for stores.
    pub is_store: bool,
    /// Symbolic inter-thread stride, rendered (e.g. `"[max]"`).
    pub thread_stride: String,
    /// Loop-nest depth of the access.
    pub depth: u32,
}

hetsel_ir::snap_newtype!(RegionId);

/// Encodes one region's blob: the kernel once, then the IPDA result, the
/// parameter list and interner, and every compiled model *without* its
/// embedded kernel ([`CompiledCpuModel::snap_body`] /
/// [`CompiledGpuModel::snap_body`]) — the decoder hands all of them the one
/// shared kernel.
fn encode_region(r: &RegionAttributes) -> Vec<u8> {
    let mut w = hetsel_ir::SnapWriter::new();
    r.kernel.snap(&mut w);
    r.access_info.snap(&mut w);
    r.required_params.snap(&mut w);
    r.symbols.snap(&mut w);
    r.cpu_model.snap_body(&mut w);
    r.gpu_model.snap_body(&mut w);
    w.put_usize(r.extra_accel_models.len());
    for m in &r.extra_accel_models {
        m.snap_body(&mut w);
    }
    w.into_bytes()
}

/// Decodes one region's blob (see [`encode_region`]), seeding the
/// process-wide IPDA memo with the stored analysis so post-load compiles of
/// the same kernel also skip the work.
fn decode_region(name: &Arc<str>, bytes: &[u8]) -> Result<RegionAttributes, hetsel_ir::SnapError> {
    let mut rd = hetsel_ir::SnapReader::new(bytes);
    let kernel = Arc::new(Kernel::unsnap(&mut rd)?);
    if kernel.name.as_str() != &**name {
        return Err(hetsel_ir::SnapError::Malformed(
            "region name does not match its kernel",
        ));
    }
    let access_info = Arc::<hetsel_ipda::KernelAccessInfo>::unsnap(&mut rd)?;
    let required_params = Vec::<String>::unsnap(&mut rd)?;
    let symbols = SymbolTable::unsnap(&mut rd)?;
    let cpu_model = CompiledCpuModel::unsnap_body(Arc::clone(&kernel), &mut rd)?;
    let gpu_model = CompiledGpuModel::unsnap_body(Arc::clone(&kernel), &mut rd)?;
    let extra = rd.get_len()?;
    let mut extra_accel_models = Vec::with_capacity(extra);
    for _ in 0..extra {
        extra_accel_models.push(CompiledGpuModel::unsnap_body(Arc::clone(&kernel), &mut rd)?);
    }
    rd.finish()?;
    hetsel_ipda::seed_analysis(&kernel, Arc::clone(&access_info));
    Ok(RegionAttributes {
        name: Arc::clone(name),
        kernel,
        access_info,
        required_params,
        symbols,
        cpu_model,
        gpu_model,
        extra_accel_models,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use hetsel_polybench::suite;

    fn selector() -> Selector {
        Selector::new(Platform::power9_v100())
    }

    #[test]
    fn compiles_entire_suite() {
        let kernels: Vec<Kernel> = suite().into_iter().flat_map(|b| b.kernels).collect();
        let db = AttributeDatabase::compile(&kernels, &selector());
        assert_eq!(db.len(), 24);
        assert!(db.region("gemm").is_some());
        assert!(db.region("atax.k2").is_some());
        assert!(db.region("missing").is_none());
    }

    #[test]
    fn required_params_recorded() {
        let kernels: Vec<Kernel> = hetsel_polybench::corr::kernels();
        let db = AttributeDatabase::compile(&kernels, &selector());
        let r = db.region("corr.corr").unwrap();
        assert!(r.required_params.contains(&"m".to_string()));
        assert!(r.required_params.contains(&"n".to_string()));
    }

    #[test]
    fn export_round_trips_through_json() {
        let kernels: Vec<Kernel> = hetsel_polybench::atax::kernels();
        let db = AttributeDatabase::compile(&kernels, &selector());
        let exp = db.export();
        let json = serde_json::to_string(&exp).unwrap();
        let back: DatabaseExport = serde_json::from_str(&json).unwrap();
        assert_eq!(exp, back);
        // The symbolic stride of atax.k1's A access survives as text.
        let k1 = back.regions.iter().find(|r| r.name == "atax.k1").unwrap();
        assert!(k1.accesses.iter().any(|a| a.thread_stride == "[n]"));
    }

    #[test]
    fn region_ids_are_dense_and_name_ordered() {
        let kernels: Vec<Kernel> = suite().into_iter().flat_map(|b| b.kernels).collect();
        let db = AttributeDatabase::compile(&kernels, &selector());
        for (expected, (name, _)) in db.iter().enumerate() {
            let (id, attrs) = db.region_entry(name).unwrap();
            assert_eq!(id, RegionId(expected as u32));
            assert_eq!(&*attrs.name, name);
            // The per-region interner mirrors required_params in order.
            let interned: Vec<&str> = attrs.symbols.iter().map(|(_, n)| n).collect();
            let required: Vec<&str> = attrs.required_params.iter().map(|s| s.as_str()).collect();
            assert_eq!(interned, required);
            // Id-based lookup agrees with name-based lookup.
            assert_eq!(db.region_by_id(id).unwrap().kernel.name, attrs.kernel.name);
        }
        assert!(db.region_by_id(RegionId(db.len() as u32)).is_none());
        assert!(db.region_entry("missing").is_none());
    }

    #[test]
    fn fleet_compile_stores_one_model_per_accelerator() {
        use crate::fleet::Fleet;
        let kernels: Vec<Kernel> = hetsel_polybench::atax::kernels();
        let fleet = Fleet::pair_labeled(&Platform::power9_v100(), "v100")
            .with_accelerator_from("k80", &Platform::power8_k80());
        let sel = Selector::new(Platform::power9_v100()).with_fleet(fleet);
        let db = AttributeDatabase::compile(&kernels, &sel);
        let (id, attrs) = db.region_entry("atax.k1").unwrap();
        assert_eq!(attrs.extra_accel_models.len(), 1);
        assert!(matches!(
            db.model_for(id, DeviceId::HOST),
            Some(CompiledModelRef::Host(_))
        ));
        assert!(matches!(
            db.model_for(id, DeviceId(1)),
            Some(CompiledModelRef::Accelerator(_))
        ));
        assert!(matches!(
            db.model_for(id, DeviceId(2)),
            Some(CompiledModelRef::Accelerator(_))
        ));
        assert!(db.model_for(id, DeviceId(3)).is_none());
        assert!(db.model_for(RegionId(999), DeviceId::HOST).is_none());
        // The two accelerators' models really differ (K80 vs V100 params):
        // a bound evaluation must produce different times.
        let (_, bind) = hetsel_polybench::find_kernel("atax.k1").unwrap();
        let binding = bind(hetsel_polybench::Dataset::Benchmark);
        let v100 = attrs.gpu_model.evaluate(&binding).unwrap().seconds;
        let k80 = attrs.extra_accel_models[0]
            .evaluate(&binding)
            .unwrap()
            .seconds;
        assert_ne!(v100, k80);
        // A host-only fleet still compiles a (fallback) pair GPU model.
        let host_only = Selector::new(Platform::power9_v100()).with_fleet(Fleet::host_only());
        let db = AttributeDatabase::compile(&kernels, &host_only);
        let attrs = db.region("atax.k1").unwrap();
        assert!(attrs.extra_accel_models.is_empty());
        assert!(attrs.gpu_model.evaluate(&binding).is_ok());
    }

    #[test]
    fn iteration_is_name_ordered() {
        let kernels: Vec<Kernel> = suite().into_iter().flat_map(|b| b.kernels).collect();
        let db = AttributeDatabase::compile(&kernels, &selector());
        let names: Vec<&str> = db.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}

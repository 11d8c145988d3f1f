//! Serializable, versioned bellwether model snapshots: everything a
//! long-lived prediction server needs, detached from the training
//! pipeline that produced it.
//!
//! A [`BellwetherModel`] carries the fitted predictors of any subset of
//! the three item-centric methods — the basic bellwether (one region +
//! model), a [`BellwetherTree`] and a [`BellwetherCube`] with its §6
//! confidence level — plus the item table (routing features) and the
//! feature data of every region any predictor can choose, so prediction
//! needs **no** [`TrainingSource`]. [`BellwetherModel::predict`] is the
//! one place an item gets its region, model and features: the server
//! answers with it and [`crate::predict`] scores §7's figures with it
//! (`predict::tests::the_figure_path_is_the_served_path_through_disk`
//! holds the two together, `save` → `load` included).
//!
//! On disk a model is a `BWSN` snapshot (see
//! [`bellwether_storage::snapshot`]): versioned sections with CRC-32
//! trailers, written with the atomic temp+fsync+rename discipline. All
//! maps are serialized in sorted key order, so the same model always
//! produces the same bytes. [`BellwetherModel::load`] returns an
//! immutable `Arc<BellwetherModel>` ready to share across server
//! workers.

use crate::cube::predict::select_cell;
use crate::cube::{BellwetherCube, SubsetCell};
use crate::error::{BellwetherError, Result};
use crate::items::{CategoricalAttr, ItemTable, NumericAttr};
use crate::report::BellwetherReport;
use crate::tree::{BellwetherTree, Node, NodeInfo, SplitCriterion};
use bellwether_cube::{Dimension, Hierarchy, RegionId, RegionSpace};
use bellwether_linreg::{ErrorEstimate, LinearModel};
use bellwether_storage::codec::{Cursor, PutLe, CHECKSUM_LEN};
use bellwether_storage::format::{decode_block_v2, encode_block_v2};
use bellwether_storage::{RegionBlock, SnapshotFile, SnapshotWriter, TrainingSource};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

/// Model payload version inside the snapshot container. Bump when the
/// section encodings change: a snapshot of any other version is refused
/// by its version, never misparsed. Version 2 stores region blocks in the
/// storage crate's checksummed block encoding.
pub const MODEL_VERSION: u32 = 2;

// Section kinds inside the BWSN container.
const SEC_HEADER: u32 = 1;
const SEC_ITEMS: u32 = 2;
const SEC_BASIC: u32 = 3;
const SEC_TREE: u32 = 4;
const SEC_CUBE: u32 = 5;
const SEC_BLOCKS: u32 = 6;

/// Which trained predictor a model invocation should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// The single bellwether region from basic search.
    Basic,
    /// Bellwether-tree routing by item features.
    Tree,
    /// Bellwether-cube cell selection by item coordinates.
    Cube,
}

impl MethodKind {
    /// Short display name (`basic` / `tree` / `cube`).
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::Basic => "basic",
            MethodKind::Tree => "tree",
            MethodKind::Cube => "cube",
        }
    }

    /// Parse a display name back to the kind.
    pub fn parse(s: &str) -> Option<MethodKind> {
        match s {
            "basic" => Some(MethodKind::Basic),
            "tree" => Some(MethodKind::Tree),
            "cube" => Some(MethodKind::Cube),
            _ => None,
        }
    }
}

/// An immutable, self-contained trained model: predictors + item table +
/// the referenced regions' feature data.
#[derive(Debug)]
pub struct BellwetherModel {
    feature_arity: usize,
    items: ItemTable,
    basic: Option<BellwetherReport>,
    tree: Option<BellwetherTree>,
    cube: Option<(BellwetherCube, f64)>,
    /// Feature data of every region a predictor can choose, by source
    /// scan index. BTreeMap so serialization order is deterministic.
    blocks: BTreeMap<usize, RegionBlock>,
    /// Per-block item-id → row lookup, built at construction (never
    /// serialized) so predictions don't scan blocks linearly.
    row_index: HashMap<usize, HashMap<i64, usize>>,
}

/// Assembles a [`BellwetherModel`] from builder outputs, reading the
/// referenced regions' feature data out of the training source.
pub struct ModelBuilder<'s> {
    source: &'s dyn TrainingSource,
    items: ItemTable,
    basic: Option<BellwetherReport>,
    tree: Option<BellwetherTree>,
    cube: Option<(BellwetherCube, f64)>,
}

impl<'s> ModelBuilder<'s> {
    /// Start a model over `source`'s regions with the given item table.
    pub fn new(source: &'s dyn TrainingSource, items: ItemTable) -> Self {
        ModelBuilder {
            source,
            items,
            basic: None,
            tree: None,
            cube: None,
        }
    }

    /// Install the basic predictor: the unified report of a basic (or
    /// linear-criterion) search — see [`crate::basic::BasicSearchResult::report`].
    pub fn basic(mut self, report: BellwetherReport) -> Self {
        self.basic = Some(report);
        self
    }

    /// Install a bellwether tree.
    pub fn tree(mut self, tree: BellwetherTree) -> Self {
        self.tree = Some(tree);
        self
    }

    /// Install a bellwether cube with the §6 confidence level used for
    /// cell selection (e.g. `0.95`; [`ModelBuilder::build`] refuses one
    /// not strictly inside `(0, 1)`).
    pub fn cube(mut self, cube: BellwetherCube, confidence: f64) -> Self {
        self.cube = Some((cube, confidence));
        self
    }

    /// Read every referenced region block and produce the model.
    /// Fails if no predictor was installed, or if the cube's confidence
    /// is not strictly inside `(0, 1)`.
    pub fn build(self) -> Result<BellwetherModel> {
        if self.basic.is_none() && self.tree.is_none() && self.cube.is_none() {
            return Err(BellwetherError::Config(
                "model needs at least one predictor (basic, tree or cube)".into(),
            ));
        }
        if let Some(&(_, conf)) = self.cube.as_ref().filter(|(_, conf)| !is_confidence(*conf)) {
            return Err(BellwetherError::Config(format!(
                "cube confidence must be strictly inside (0, 1), got {conf}"
            )));
        }
        let mut blocks = BTreeMap::new();
        for (idx, _) in choosable(&self.basic, &self.tree, &self.cube) {
            if blocks.contains_key(&idx) {
                continue;
            }
            let block = self
                .source
                .read_region(idx)
                .map_err(|source| BellwetherError::RegionRead { index: idx, source })?;
            blocks.insert(idx, (*block).clone());
        }
        Ok(BellwetherModel::assemble(
            self.source.feature_arity(),
            self.items,
            self.basic,
            self.tree,
            self.cube,
            blocks,
        ))
    }
}

impl BellwetherModel {
    fn assemble(
        feature_arity: usize,
        items: ItemTable,
        basic: Option<BellwetherReport>,
        tree: Option<BellwetherTree>,
        cube: Option<(BellwetherCube, f64)>,
        blocks: BTreeMap<usize, RegionBlock>,
    ) -> Self {
        let row_index = blocks
            .iter()
            .map(|(&idx, block)| {
                let map = block
                    .item_ids
                    .iter()
                    .enumerate()
                    .map(|(row, &id)| (id, row))
                    .collect::<HashMap<_, _>>();
                (idx, map)
            })
            .collect();
        BellwetherModel {
            feature_arity,
            items,
            basic,
            tree,
            cube,
            blocks,
            row_index,
        }
    }

    /// Shared feature arity `p` of the stored regions.
    pub fn feature_arity(&self) -> usize {
        self.feature_arity
    }

    /// The item table the model routes and backfills from.
    pub fn items(&self) -> &ItemTable {
        &self.items
    }

    /// The basic predictor's report, if installed.
    pub fn basic_report(&self) -> Option<&BellwetherReport> {
        self.basic.as_ref()
    }

    /// The tree predictor, if installed.
    pub fn tree(&self) -> Option<&BellwetherTree> {
        self.tree.as_ref()
    }

    /// The cube predictor and its confidence level, if installed.
    pub fn cube(&self) -> Option<(&BellwetherCube, f64)> {
        self.cube.as_ref().map(|(c, conf)| (c, *conf))
    }

    /// The installed method kinds, in `basic, tree, cube` order.
    pub fn methods(&self) -> Vec<MethodKind> {
        let mut out = Vec::new();
        if self.basic.is_some() {
            out.push(MethodKind::Basic);
        }
        if self.tree.is_some() {
            out.push(MethodKind::Tree);
        }
        if self.cube.is_some() {
            out.push(MethodKind::Cube);
        }
        out
    }

    /// Resolve the (region, model) `method` uses for `id`.
    fn choose(&self, method: MethodKind, id: i64) -> Option<(usize, &LinearModel)> {
        match method {
            MethodKind::Basic => {
                let b = self.basic.as_ref()?;
                Some((b.region_index, &b.model))
            }
            MethodKind::Tree => {
                let info = self.tree.as_ref()?.predicting_info(&self.items, id)?;
                Some((info.region_index, &info.model))
            }
            MethodKind::Cube => {
                let (cube, confidence) = self.cube.as_ref()?;
                let coords = cube.item_coords.get(&id)?;
                let cell = select_cell(cube, coords, *confidence)?;
                Some((cell.region_index, &cell.model))
            }
        }
    }

    /// The feature vector of `id` in region `idx`: the stored row when
    /// the item has data there, else intercept + static features +
    /// zero-filled regional features (the training-time NULL → 0
    /// policy). `None` when the item is entirely unknown.
    fn features(&self, idx: usize, id: i64) -> Option<Vec<f64>> {
        if let Some(&row) = self.row_index.get(&idx).and_then(|m| m.get(&id)) {
            return Some(self.blocks[&idx].row(row));
        }
        let statics = self.items.static_features(id)?;
        let mut x = Vec::with_capacity(self.feature_arity);
        x.push(1.0);
        x.extend_from_slice(&statics);
        x.resize(self.feature_arity, 0.0);
        Some(x)
    }

    /// Predict item `id`'s target with `method`. `None` when the method
    /// is not installed, the item cannot be routed, or the item is
    /// unknown to the item table.
    pub fn predict(&self, method: MethodKind, id: i64) -> Option<f64> {
        let (region_index, model) = self.choose(method, id)?;
        let x = self.features(region_index, id)?;
        Some(model.predict(&x))
    }

    /// Predict a batch of items; one slot per input id.
    pub fn predict_batch(&self, method: MethodKind, ids: &[i64]) -> Vec<Option<f64>> {
        ids.iter().map(|&id| self.predict(method, id)).collect()
    }

    /// Write the model as a `BWSN` snapshot at `path` (atomic: readers
    /// see the old file or the complete new one, never a mix).
    pub fn save(&self, path: &Path) -> Result<()> {
        let mut w = SnapshotWriter::create(path)?;
        let mut header = Vec::new();
        header.put_u32_le(MODEL_VERSION);
        header.put_u64_le(self.feature_arity as u64);
        w.write_section(SEC_HEADER, &header)?;
        w.write_section(SEC_ITEMS, &enc_items(&self.items))?;
        if let Some(b) = &self.basic {
            w.write_section(SEC_BASIC, &enc_report(b))?;
        }
        if let Some(t) = &self.tree {
            w.write_section(SEC_TREE, &enc_tree(t))?;
        }
        if let Some((c, conf)) = &self.cube {
            let mut buf = Vec::new();
            buf.put_f64_le(*conf);
            enc_cube_into(&mut buf, c);
            w.write_section(SEC_CUBE, &buf)?;
        }
        w.write_section(SEC_BLOCKS, &enc_blocks(&self.blocks))?;
        w.finish()?;
        Ok(())
    }

    /// Load a model snapshot into an immutable shared handle. Corrupt
    /// files surface as structured
    /// [`CorruptBlock`](bellwether_storage::CorruptBlock)-carrying IO
    /// errors; truncated or malformed payloads as decode errors. Never
    /// panics on bad bytes.
    pub fn load(path: &Path) -> Result<Arc<BellwetherModel>> {
        let snap = SnapshotFile::read(path)?;
        Ok(Arc::new(Self::decode(&snap)?))
    }

    fn decode(snap: &SnapshotFile) -> Result<BellwetherModel> {
        let header = snap
            .section(SEC_HEADER)
            .ok_or_else(|| de("missing model header section"))?;
        let mut d = Cursor::new(header);
        let version = d.get_u32_le()?;
        if version != MODEL_VERSION {
            return Err(de(&format!("unsupported model version {version}")));
        }
        let feature_arity = d.get_usize()?;

        let items_bytes = snap
            .section(SEC_ITEMS)
            .ok_or_else(|| de("missing item-table section"))?;
        let items = dec_items(&mut Cursor::new(items_bytes))?;

        let basic = snap
            .section(SEC_BASIC)
            .map(|b| dec_report(&mut Cursor::new(b)))
            .transpose()?;
        let tree = snap
            .section(SEC_TREE)
            .map(|b| dec_tree(&mut Cursor::new(b)))
            .transpose()?;
        let cube = snap
            .section(SEC_CUBE)
            .map(|b| {
                let mut d = Cursor::new(b);
                let conf = d.get_f64_le()?;
                if !is_confidence(conf) {
                    return Err(de(&format!("cube confidence {conf} is not inside (0, 1)")));
                }
                let cube = dec_cube(&mut d)?;
                Ok::<_, BellwetherError>((cube, conf))
            })
            .transpose()?;

        let blocks_bytes = snap
            .section(SEC_BLOCKS)
            .ok_or_else(|| de("missing region-blocks section"))?;
        let blocks = dec_blocks(&mut Cursor::new(blocks_bytes), feature_arity)?;

        if basic.is_none() && tree.is_none() && cube.is_none() {
            return Err(de("model snapshot holds no predictor"));
        }
        // What `predict` takes on trust: an item's fallback row
        // (intercept + static features) fits the feature arity, and
        // every region a predictor can choose has a stored block and a
        // model as wide as its rows.
        let statics = items.numeric_attrs().len();
        if 1 + statics > feature_arity {
            return Err(de(&format!(
                "{statics} static features do not fit feature arity {feature_arity}"
            )));
        }
        for (idx, model) in choosable(&basic, &tree, &cube) {
            if model.p() != feature_arity {
                return Err(de(&format!(
                    "a model of region {idx} has {} coefficients, not {feature_arity}",
                    model.p()
                )));
            }
            if !blocks.contains_key(&idx) {
                return Err(de(&format!("region {idx} has no stored block")));
            }
        }
        Ok(Self::assemble(
            feature_arity,
            items,
            basic,
            tree,
            cube,
            blocks,
        ))
    }
}

/// Every (region index, model) pair a predictor can choose: the basic
/// report, every tree node with a fitted bellwether (not just leaves:
/// routing stops early on unseen categorical values and predicts from
/// the interior node it stopped at), and every cube cell.
fn choosable<'a>(
    basic: &'a Option<BellwetherReport>,
    tree: &'a Option<BellwetherTree>,
    cube: &'a Option<(BellwetherCube, f64)>,
) -> impl Iterator<Item = (usize, &'a LinearModel)> {
    let basic = basic.iter().map(|b| (b.region_index, &b.model));
    let tree = tree
        .iter()
        .flat_map(|t| &t.nodes)
        .filter_map(|n| n.info.as_ref());
    let cells = cube.iter().flat_map(|(c, _)| c.cells.values());
    basic
        .chain(tree.map(|i| (i.region_index, &i.model)))
        .chain(cells.map(|cell| (cell.region_index, &cell.model)))
}

/// Whether `conf` can select cube cells: the §6 confidence level feeds a
/// normal quantile, defined only for a probability strictly inside
/// `(0, 1)` (so never NaN or infinite).
fn is_confidence(conf: f64) -> bool {
    conf > 0.0 && conf < 1.0
}

/// Decode-error constructor: malformed model payloads are IO
/// `InvalidData`, matching the storage crate's classification.
fn de(msg: &str) -> BellwetherError {
    BellwetherError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("model snapshot: {msg}"),
    ))
}

// ---------------------------------------------------------------------
// Section payloads, over the workspace's one byte codec
// (`bellwether_storage::codec`): little-endian throughout, `f64`
// bit-exact (NaN payloads included), every decode total.
// ---------------------------------------------------------------------

// ---- item table ----

fn enc_items(items: &ItemTable) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_i64_vec(items.ids());
    buf.put_u64_le(items.numeric_attrs().len() as u64);
    for a in items.numeric_attrs() {
        buf.put_str(&a.name);
        buf.put_f64_vec(&a.values);
    }
    buf.put_u64_le(items.categorical_attrs().len() as u64);
    for a in items.categorical_attrs() {
        buf.put_str(&a.name);
        buf.put_u32_vec(&a.codes);
        buf.put_u64_le(a.labels.len() as u64);
        for l in &a.labels {
            buf.put_str(l);
        }
    }
    buf
}

fn dec_items(d: &mut Cursor<'_>) -> Result<ItemTable> {
    let ids = d.get_i64_vec()?;
    let n_num = d.get_count(5)?;
    let mut numeric = Vec::with_capacity(n_num);
    for _ in 0..n_num {
        let name = d.get_string()?;
        let values = d.get_f64_vec()?;
        numeric.push(NumericAttr { name, values });
    }
    let n_cat = d.get_count(5)?;
    let mut categorical = Vec::with_capacity(n_cat);
    for _ in 0..n_cat {
        let name = d.get_string()?;
        let codes = d.get_u32_vec()?;
        let n_labels = d.get_count(4)?;
        let labels = (0..n_labels)
            .map(|_| d.get_string())
            .collect::<std::io::Result<Vec<_>>>()?;
        categorical.push(CategoricalAttr {
            name,
            codes,
            labels,
        });
    }
    d.done()?;
    ItemTable::from_parts(ids, numeric, categorical)
}

// ---- linreg primitives ----

fn enc_estimate_into(buf: &mut Vec<u8>, e: &ErrorEstimate) {
    buf.put_f64_le(e.value);
    buf.put_f64_le(e.std_err);
}

fn dec_estimate(d: &mut Cursor<'_>) -> Result<ErrorEstimate> {
    Ok(ErrorEstimate {
        value: d.get_f64_le()?,
        std_err: d.get_f64_le()?,
    })
}

// ---- unified report (basic predictor) ----

fn enc_report(r: &BellwetherReport) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_u32_vec(&r.region.0);
    buf.put_str(&r.label);
    buf.put_u64_le(r.region_index as u64);
    buf.put_f64_le(r.score);
    buf.put_f64_le(r.error);
    buf.put_option(r.error_bounds.as_ref(), enc_estimate_into);
    buf.put_f64_vec(r.model.coefficients());
    buf.put_u64_le(r.n_examples as u64);
    buf.put_usize_vec(&r.skipped_regions);
    buf
}

fn dec_report(d: &mut Cursor<'_>) -> Result<BellwetherReport> {
    let region = RegionId(d.get_u32_vec()?);
    let label = d.get_string()?;
    let region_index = d.get_usize()?;
    let score = d.get_f64_le()?;
    let error = d.get_f64_le()?;
    let error_bounds = d.get_option(dec_estimate)?;
    let model = LinearModel::new(d.get_f64_vec()?);
    let n_examples = d.get_usize()?;
    let skipped_regions = d.get_usize_vec()?;
    d.done()?;
    Ok(BellwetherReport {
        region,
        label,
        region_index,
        score,
        error,
        error_bounds,
        model,
        n_examples,
        skipped_regions,
    })
}

// ---- tree ----

fn enc_node_info_into(buf: &mut Vec<u8>, i: &NodeInfo) {
    buf.put_u64_le(i.region_index as u64);
    buf.put_u32_vec(&i.region.0);
    buf.put_str(&i.label);
    buf.put_f64_le(i.error);
    buf.put_f64_vec(i.model.coefficients());
    buf.put_u64_le(i.n_examples as u64);
}

fn dec_node_info(d: &mut Cursor<'_>) -> Result<NodeInfo> {
    Ok(NodeInfo {
        region_index: d.get_usize()?,
        region: RegionId(d.get_u32_vec()?),
        label: d.get_string()?,
        error: d.get_f64_le()?,
        model: LinearModel::new(d.get_f64_vec()?),
        n_examples: d.get_usize()?,
    })
}

fn enc_criterion_into(buf: &mut Vec<u8>, c: &SplitCriterion) {
    match c {
        SplitCriterion::Categorical {
            attr,
            code_children,
        } => {
            buf.put_u8(0);
            buf.put_u64_le(*attr as u64);
            let mut pairs: Vec<(u32, usize)> =
                code_children.iter().map(|(&k, &v)| (k, v)).collect();
            pairs.sort_unstable();
            buf.put_u64_le(pairs.len() as u64);
            for (code, child) in pairs {
                buf.put_u32_le(code);
                buf.put_u64_le(child as u64);
            }
        }
        SplitCriterion::Numeric { attr, threshold } => {
            buf.put_u8(1);
            buf.put_u64_le(*attr as u64);
            buf.put_f64_le(*threshold);
        }
    }
}

fn dec_criterion(d: &mut Cursor<'_>) -> Result<SplitCriterion> {
    match d.get_u8()? {
        0 => {
            let attr = d.get_usize()?;
            let n = d.get_count(12)?;
            let mut code_children = HashMap::with_capacity(n);
            for _ in 0..n {
                let code = d.get_u32_le()?;
                let child = d.get_usize()?;
                code_children.insert(code, child);
            }
            Ok(SplitCriterion::Categorical {
                attr,
                code_children,
            })
        }
        1 => Ok(SplitCriterion::Numeric {
            attr: d.get_usize()?,
            threshold: d.get_f64_le()?,
        }),
        _ => Err(de("bad split-criterion tag")),
    }
}

fn enc_tree(t: &BellwetherTree) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_u64_le(t.nodes.len() as u64);
    for node in &t.nodes {
        buf.put_u64_le(node.depth as u64);
        buf.put_usize_vec(&node.item_rows);
        buf.put_option(node.info.as_ref(), enc_node_info_into);
        buf.put_option(node.split.as_ref(), |buf, (criterion, children)| {
            enc_criterion_into(buf, criterion);
            buf.put_usize_vec(children);
        });
    }
    buf.put_usize_vec(&t.skipped_regions);
    buf
}

fn dec_tree(d: &mut Cursor<'_>) -> Result<BellwetherTree> {
    let n = d.get_count(10)?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let depth = d.get_usize()?;
        let item_rows = d.get_usize_vec()?;
        let info = d.get_option(dec_node_info)?;
        let split = d.get_option(|d| Ok::<_, BellwetherError>((dec_criterion(d)?, d.get_usize_vec()?)))?;
        nodes.push(Node {
            depth,
            item_rows,
            info,
            split,
        });
    }
    let skipped_regions = d.get_usize_vec()?;
    d.done()?;
    if nodes.is_empty() {
        return Err(de("tree has no nodes"));
    }
    // Routing walks split child ids; validate them so a malformed
    // payload cannot panic prediction later.
    for node in &nodes {
        if let Some((_, children)) = &node.split {
            if children.iter().any(|&c| c >= nodes.len()) {
                return Err(de("tree child id out of range"));
            }
        }
    }
    Ok(BellwetherTree {
        nodes,
        skipped_regions,
    })
}

// ---- dimension / space / cube ----

fn enc_hierarchy_into(buf: &mut Vec<u8>, h: &Hierarchy) {
    buf.put_str(h.name());
    let n = h.num_nodes();
    buf.put_u64_le(n as u64);
    for id in 0..n {
        let node = h.node(id);
        // Root's parent encodes as its own id (0); ids are assigned
        // parent-before-child, so replay reconstructs them exactly.
        buf.put_u32_le(node.parent.unwrap_or(id));
        buf.put_str(&node.label);
    }
}

fn dec_hierarchy(d: &mut Cursor<'_>) -> Result<Hierarchy> {
    let name = d.get_string()?;
    let n = d.get_count(8)?;
    if n == 0 {
        return Err(de("hierarchy has no nodes"));
    }
    let root_parent = d.get_u32_le()?;
    if root_parent != 0 {
        return Err(de("hierarchy root must be node 0"));
    }
    let root_label = d.get_string()?;
    let mut h = Hierarchy::new(name, root_label);
    for id in 1..n {
        let parent = d.get_u32_le()?;
        let label = d.get_string()?;
        if parent as usize >= id || h.id_of(&label).is_some() {
            return Err(de("malformed hierarchy node"));
        }
        let got = h.add_child(parent, label);
        debug_assert_eq!(got as usize, id);
    }
    Ok(h)
}

fn enc_space_into(buf: &mut Vec<u8>, s: &RegionSpace) {
    buf.put_u64_le(s.dims().len() as u64);
    for dim in s.dims() {
        match dim {
            Dimension::Interval { name, max_t } => {
                buf.put_u8(0);
                buf.put_str(name);
                buf.put_u32_le(*max_t);
            }
            Dimension::Hierarchy(h) => {
                buf.put_u8(1);
                enc_hierarchy_into(buf, h);
            }
        }
    }
}

fn dec_space(d: &mut Cursor<'_>) -> Result<RegionSpace> {
    let n = d.get_count(2)?;
    if n == 0 {
        return Err(de("region space has no dimensions"));
    }
    let mut dims = Vec::with_capacity(n);
    for _ in 0..n {
        dims.push(match d.get_u8()? {
            0 => {
                let name = d.get_string()?;
                let max_t = d.get_u32_le()?;
                if max_t == 0 {
                    return Err(de("interval dimension with no values"));
                }
                Dimension::Interval { name, max_t }
            }
            1 => Dimension::Hierarchy(dec_hierarchy(d)?),
            _ => return Err(de("bad dimension tag")),
        });
    }
    Ok(RegionSpace::new(dims))
}

fn enc_cell_into(buf: &mut Vec<u8>, c: &SubsetCell) {
    buf.put_u32_vec(&c.subset.0);
    buf.put_str(&c.label);
    buf.put_u64_le(c.size as u64);
    buf.put_u64_le(c.region_index as u64);
    buf.put_u32_vec(&c.region.0);
    buf.put_str(&c.region_label);
    enc_estimate_into(buf, &c.error);
    buf.put_f64_vec(c.model.coefficients());
    buf.put_u64_le(c.n_examples as u64);
}

fn dec_cell(d: &mut Cursor<'_>) -> Result<SubsetCell> {
    Ok(SubsetCell {
        subset: RegionId(d.get_u32_vec()?),
        label: d.get_string()?,
        size: d.get_usize()?,
        region_index: d.get_usize()?,
        region: RegionId(d.get_u32_vec()?),
        region_label: d.get_string()?,
        error: dec_estimate(d)?,
        model: LinearModel::new(d.get_f64_vec()?),
        n_examples: d.get_usize()?,
    })
}

fn enc_cube_into(buf: &mut Vec<u8>, c: &BellwetherCube) {
    enc_space_into(buf, &c.item_space);
    let mut coords: Vec<(&i64, &Vec<u32>)> = c.item_coords.iter().collect();
    coords.sort_by_key(|(id, _)| **id);
    buf.put_u64_le(coords.len() as u64);
    for (id, cs) in coords {
        buf.put_i64_le(*id);
        buf.put_u32_vec(cs);
    }
    let mut cells: Vec<(&RegionId, &SubsetCell)> = c.cells.iter().collect();
    cells.sort_by_key(|(subset, _)| (*subset).clone());
    buf.put_u64_le(cells.len() as u64);
    for (subset, cell) in cells {
        buf.put_u32_vec(&subset.0);
        enc_cell_into(buf, cell);
    }
    buf.put_usize_vec(&c.skipped_regions);
}

fn dec_cube(d: &mut Cursor<'_>) -> Result<BellwetherCube> {
    let item_space = dec_space(d)?;
    let n_coords = d.get_count(16)?;
    let mut item_coords = HashMap::with_capacity(n_coords);
    for _ in 0..n_coords {
        let id = d.get_i64_le()?;
        let coords = d.get_u32_vec()?;
        item_coords.insert(id, coords);
    }
    let n_cells = d.get_count(8)?;
    let mut cells = HashMap::with_capacity(n_cells);
    for _ in 0..n_cells {
        let subset = RegionId(d.get_u32_vec()?);
        let cell = dec_cell(d)?;
        cells.insert(subset, cell);
    }
    let skipped_regions = d.get_usize_vec()?;
    d.done()?;
    Ok(BellwetherCube {
        item_space,
        item_coords,
        cells,
        skipped_regions,
    })
}

// ---- region blocks ----

/// A count, then per block its scan index and the length-prefixed
/// checksummed block encoding of [`bellwether_storage::format`].
fn enc_blocks(blocks: &BTreeMap<usize, RegionBlock>) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.put_u64_le(blocks.len() as u64);
    for (&idx, block) in blocks {
        buf.put_u64_le(idx as u64);
        buf.put_u64_le((block.encoded_len() + CHECKSUM_LEN) as u64);
        encode_block_v2(block, &mut buf);
    }
    buf
}

/// The blocks section: each block verified and parsed by
/// [`decode_block_v2`], and as wide as the model's `feature_arity`.
fn dec_blocks(d: &mut Cursor<'_>, feature_arity: usize) -> Result<BTreeMap<usize, RegionBlock>> {
    let n = d.get_count(16)?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let idx = d.get_usize()?;
        let len = d.get_count(1)?;
        let block = decode_block_v2(d.take_span(len)?)?;
        if block.p as usize != feature_arity {
            return Err(de(&format!(
                "block of region {idx} has {} features, not {feature_arity}",
                block.p
            )));
        }
        out.insert(idx, block);
    }
    d.done()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::basic_search;
    use crate::cube::single_scan::build_single_scan_cube;
    use crate::cube::tests_support::cube_fixture;
    use crate::cube::CubeConfig;
    use crate::problem::{BellwetherConfig, ErrorMeasure};
    use crate::tree::rainforest::build_rainforest;
    use crate::tree::TreeConfig;
    use bellwether_cube::UniformCellCost;
    use bellwether_prop::{sweep, Damage};
    use std::path::PathBuf;

    fn problem() -> BellwetherConfig {
        BellwetherConfig::builder(1e9)
            .min_coverage(0.0)
            .min_examples(4)
            .error_measure(ErrorMeasure::TrainingSet)
            .build()
            .unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bw_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn full_model() -> (BellwetherModel, Vec<i64>) {
        let (src, region_space, items, item_space, coords) = cube_fixture();
        let ids = items.ids().to_vec();
        let problem = problem();
        let cost = UniformCellCost { rate: 1.0 };
        let search = basic_search(&src, &region_space, &cost, &problem, items.len()).unwrap();
        let tree = build_rainforest(
            &src,
            &region_space,
            &items,
            None,
            &problem,
            &TreeConfig { min_node_items: 8, ..TreeConfig::default() },
        )
        .unwrap();
        let cube = build_single_scan_cube(
            &src,
            &region_space,
            &item_space,
            &coords,
            &problem,
            &CubeConfig { min_subset_size: 4 },
        )
        .unwrap();
        let model = ModelBuilder::new(&src, items)
            .basic(search.report().unwrap())
            .tree(tree)
            .cube(cube, 0.95)
            .build()
            .unwrap();
        (model, ids)
    }

    #[test]
    fn round_trip_is_bit_identical_for_all_methods() {
        let (model, ids) = full_model();
        let path = tmp("full.bwsn");
        model.save(&path).unwrap();
        let loaded = BellwetherModel::load(&path).unwrap();
        assert_eq!(loaded.feature_arity(), model.feature_arity());
        assert_eq!(loaded.methods(), model.methods());
        for method in model.methods() {
            for &id in &ids {
                let a = model.predict(method, id);
                let b = loaded.predict(method, id);
                match (a, b) {
                    (Some(x), Some(y)) => assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{} id {id}: {x} vs {y}",
                        method.name()
                    ),
                    (None, None) => {}
                    _ => panic!("{} id {id}: {a:?} vs {b:?}", method.name()),
                }
            }
            // Unknown items answer None on both sides.
            assert_eq!(model.predict(method, -999), None);
            assert_eq!(loaded.predict(method, -999), None);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_is_deterministic() {
        let (model, _) = full_model();
        let p1 = tmp("det1.bwsn");
        let p2 = tmp("det2.bwsn");
        model.save(&p1).unwrap();
        model.save(&p2).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn empty_builder_is_rejected() {
        let (src, _rs, items, _is, _c) = cube_fixture();
        assert!(ModelBuilder::new(&src, items).build().is_err());
    }

    /// Re-save `snap` at `path` with the payload of section `kind`
    /// replaced, every section re-sealed as a forger would.
    fn reseal(path: &Path, snap: &SnapshotFile, kind: u32, payload: &[u8]) {
        let mut w = SnapshotWriter::create(path).unwrap();
        for sec in &snap.sections {
            let payload = if sec.kind == kind {
                payload
            } else {
                &sec.payload[..]
            };
            w.write_section(sec.kind, payload).unwrap();
        }
        w.finish().unwrap();
    }

    fn assert_refused(loaded: Result<Arc<BellwetherModel>>, what: &str) {
        match loaded {
            Err(BellwetherError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}: {e}");
                assert!(e.to_string().contains(what), "{what}: {e}");
            }
            other => panic!("{what}: loaded {other:?}"),
        }
    }

    /// The cube's confidence feeds a normal quantile at its first
    /// prediction, so a value outside `(0, 1)` must not reach a model:
    /// the builder refuses it, and so does `load` for a snapshot whose
    /// cube section was re-sealed around it.
    #[test]
    fn a_cube_confidence_outside_the_unit_interval_is_refused() {
        let (model, ids) = full_model();
        let path = tmp("confidence.bwsn");
        model.save(&path).unwrap();
        let snap = SnapshotFile::read(&path).unwrap();
        let cube_section = snap.section(SEC_CUBE).unwrap().to_vec();
        let (src, _, items, _, _) = cube_fixture();
        let cube = model.cube().unwrap().0;
        for conf in [0.95, 1.5, 1.0, 0.0, -0.5, f64::NAN, f64::INFINITY] {
            let mut payload = cube_section.clone();
            payload[..8].copy_from_slice(&conf.to_le_bytes());
            reseal(&path, &snap, SEC_CUBE, &payload);
            let loaded = BellwetherModel::load(&path);
            let built = ModelBuilder::new(&src, items.clone()).cube(cube.clone(), conf).build();
            if conf == 0.95 {
                let loaded = loaded.unwrap();
                assert_eq!(loaded.predict_batch(MethodKind::Cube, &ids), model.predict_batch(MethodKind::Cube, &ids));
                assert!(built.is_ok());
                continue;
            }
            assert_refused(loaded, "confidence");
            assert!(matches!(built, Err(BellwetherError::Config(_))), "confidence {conf}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// `predict` zips a model with a row of the feature arity and falls
    /// back to static features padded to it when a block is missing, so
    /// a re-sealed snapshot that breaks either is refused at load —
    /// never answered with a truncated dot product.
    #[test]
    fn a_snapshot_predict_cannot_trust_is_refused() {
        let (model, ids) = full_model();
        let p = model.feature_arity();
        let path = tmp("untrusted.bwsn");
        model.save(&path).unwrap();
        let snap = SnapshotFile::read(&path).unwrap();
        let narrow = |m: &mut LinearModel| *m = LinearModel::new(m.coefficients()[1..].to_vec());

        // (a) A stored block one feature wider than the arity.
        let mut wide = model.blocks.clone();
        let block = wide.values_mut().next().unwrap();
        let mut cols = block.cols().to_vec();
        cols.push(vec![0.0; block.n()]);
        *block = RegionBlock::from_columns(
            block.region.clone(),
            p as u32 + 1,
            block.item_ids.clone(),
            cols,
            block.targets.clone(),
        );
        // (b) A basic, tree-node or cube-cell model one coefficient short.
        let mut basic = model.basic.clone().unwrap();
        narrow(&mut basic.model);
        let mut tree = model.tree.clone().unwrap();
        let info = tree.nodes.iter_mut().find_map(|n| n.info.as_mut());
        narrow(&mut info.unwrap().model);
        let (mut cube, conf) = model.cube.clone().unwrap();
        narrow(&mut cube.cells.values_mut().next().unwrap().model);
        let mut cube_section = Vec::new();
        cube_section.put_f64_le(conf);
        enc_cube_into(&mut cube_section, &cube);
        // (c) The basic region's block gone.
        let mut missing = model.blocks.clone();
        missing.remove(&basic.region_index);
        // (d) As many static features as the arity, plus the intercept.
        let mut numeric = model.items.numeric_attrs().to_vec();
        while numeric.len() < p {
            let name = format!("extra{}", numeric.len());
            let values = vec![0.0; ids.len()];
            numeric.push(NumericAttr { name, values });
        }
        let categorical = model.items.categorical_attrs().to_vec();
        let crowded = ItemTable::from_parts(ids.clone(), numeric, categorical).unwrap();

        let cases = [
            (SEC_BLOCKS, enc_blocks(&wide), "features, not"),
            (SEC_BASIC, enc_report(&basic), "coefficients"),
            (SEC_TREE, enc_tree(&tree), "coefficients"),
            (SEC_CUBE, cube_section, "coefficients"),
            (SEC_BLOCKS, enc_blocks(&missing), "no stored block"),
            (SEC_ITEMS, enc_items(&crowded), "static features"),
        ];
        for (kind, payload, what) in cases {
            reseal(&path, &snap, kind, &payload);
            assert_refused(BellwetherModel::load(&path), what);
        }
        // Re-sealing the untouched blocks loads the same model.
        reseal(&path, &snap, SEC_BLOCKS, &enc_blocks(&model.blocks));
        let loaded = BellwetherModel::load(&path).unwrap();
        for method in model.methods() {
            let batch = model.predict_batch(method, &ids);
            assert_eq!(loaded.predict_batch(method, &ids), batch);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn predict_batch_matches_singles() {
        let (model, ids) = full_model();
        let batch = model.predict_batch(MethodKind::Cube, &ids);
        for (&id, slot) in ids.iter().zip(&batch) {
            assert_eq!(*slot, model.predict(MethodKind::Cube, id));
        }
    }

    #[test]
    fn method_kind_names_round_trip() {
        for k in [MethodKind::Basic, MethodKind::Tree, MethodKind::Cube] {
            assert_eq!(MethodKind::parse(k.name()), Some(k));
        }
        assert_eq!(MethodKind::parse("nope"), None);
    }

    /// What a section whose CRC was recomputed over damaged bytes hands
    /// the payload decoders: every truncation is an error, and a flipped
    /// bit is an error or a model that re-encodes no longer than the
    /// payload (nothing was sized past it) — never a panic.
    #[test]
    fn truncated_model_payloads_error_not_panic() {
        let (model, _) = full_model();
        let path = tmp("trunc_model.bwsn");
        model.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Whole-file truncations are caught by the container.
        for len in (0..bytes.len()).step_by(7) {
            let _ = SnapshotFile::decode(&bytes[..len]);
        }
        let snap = SnapshotFile::decode(&bytes).unwrap();
        let p = model.feature_arity();
        let reencode = |kind: u32, d: &mut Cursor<'_>| -> Result<Vec<u8>> {
            match kind {
                SEC_ITEMS => dec_items(d).map(|items| enc_items(&items)),
                SEC_BASIC => dec_report(d).map(|report| enc_report(&report)),
                SEC_TREE => dec_tree(d).map(|tree| enc_tree(&tree)),
                SEC_CUBE => {
                    let mut buf = Vec::new();
                    buf.put_f64_le(d.get_f64_le()?);
                    enc_cube_into(&mut buf, &dec_cube(d)?);
                    Ok(buf)
                }
                _ => dec_blocks(d, p).map(|blocks| enc_blocks(&blocks)),
            }
        };
        for sec in snap.sections.iter().filter(|sec| sec.kind != SEC_HEADER) {
            sweep(&sec.payload, |bytes, damage| {
                match (reencode(sec.kind, &mut Cursor::new(bytes)), damage) {
                    (Ok(_), Damage::Truncated { .. }) => panic!("section {} decoded", sec.kind),
                    (Ok(back), _) => assert!(back.len() <= bytes.len(), "section {}", sec.kind),
                    (Err(_), _) => {}
                }
            });
        }
        std::fs::remove_file(&path).ok();
    }
}

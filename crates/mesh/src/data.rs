//! Patch-resident field storage: the paper's **Data Object** subsystem
//! ("it maintains the collection of arrays which contain data declared on
//! patches, 1 array per patch. Typically a number of related variables are
//! stored together in a Data Object").
//!
//! Layout is a dense structure-of-arrays (DESIGN.md §13): one
//! contiguous *plane* per variable, row-major inside the plane, each row
//! exactly `total_box().nx()` values long, so kernels see unit-stride,
//! branch-free row slices ([`PatchData::row`], [`PatchData::rows3`],
//! [`VarView`]). Pack/unpack and checkpoint records walk the same rows,
//! so wire bytes follow the stored order.

use crate::boxes::IntBox;
use std::collections::BTreeMap;

/// The field data of one patch: `nvars` variables over the patch interior
/// plus `nghost` ghost cells on every side, stored as dense SoA planes.
/// Equality compares geometry and every stored value.
#[derive(Clone, Debug, PartialEq)]
pub struct PatchData {
    /// Interior cell box, in the patch's level index space.
    pub interior: IntBox,
    /// Number of variables stored together.
    pub nvars: usize,
    /// Ghost width on each side.
    pub nghost: i64,
    data: Vec<f64>,
}

impl PatchData {
    /// Allocate zero-initialized storage.
    pub fn new(interior: IntBox, nvars: usize, nghost: i64) -> Self {
        let len = nvars * interior.grow(nghost).count() as usize;
        PatchData {
            interior,
            nvars,
            nghost,
            data: vec![0.0; len],
        }
    }

    /// Interior-plus-ghost box.
    pub fn total_box(&self) -> IntBox {
        self.interior.grow(self.nghost)
    }

    /// Elements per variable plane (`total` cell count).
    #[inline]
    fn plane(&self) -> usize {
        self.total_box().count() as usize
    }

    /// Flat index of `(var, i, j)`; `(i, j)` are level coordinates and may
    /// lie in the ghost region.
    #[inline]
    pub fn idx(&self, var: usize, i: i64, j: i64) -> usize {
        let t = self.total_box();
        debug_assert!(t.contains(i, j), "({i},{j}) outside {t:?}");
        debug_assert!(var < self.nvars);
        let ii = (i - t.lo[0]) as usize;
        let jj = (j - t.lo[1]) as usize;
        (var * t.ny() as usize + jj) * t.nx() as usize + ii
    }

    /// Read one value.
    #[inline]
    pub fn get(&self, var: usize, i: i64, j: i64) -> f64 {
        self.data[self.idx(var, i, j)]
    }

    /// Write one value.
    #[inline]
    pub fn set(&mut self, var: usize, i: i64, j: i64, v: f64) {
        let k = self.idx(var, i, j);
        self.data[k] = v;
    }

    /// Add to one value.
    #[inline]
    pub fn add(&mut self, var: usize, i: i64, j: i64, v: f64) {
        let k = self.idx(var, i, j);
        self.data[k] += v;
    }

    /// Start of row `j` (level coordinate) inside variable `var`'s plane.
    #[inline]
    fn row_start(&self, var: usize, j: i64) -> usize {
        let t = self.total_box();
        debug_assert!(var < self.nvars);
        debug_assert!((t.lo[1]..=t.hi[1]).contains(&j), "row {j} outside {t:?}");
        let jj = (j - t.lo[1]) as usize;
        (var * t.ny() as usize + jj) * t.nx() as usize
    }

    /// Row `j` of variable `var`: the `total.nx()` stored values
    /// (ghosts included). The preferred kernel accessor:
    /// bounds-check once per row, then iterate a unit-stride slice.
    #[inline]
    pub fn row(&self, var: usize, j: i64) -> &[f64] {
        let s = self.row_start(var, j);
        let nx = self.total_box().nx() as usize;
        &self.data[s..s + nx]
    }

    /// Mutable row `j` of variable `var`.
    #[inline]
    pub fn row_mut(&mut self, var: usize, j: i64) -> &mut [f64] {
        let s = self.row_start(var, j);
        let nx = self.total_box().nx() as usize;
        &mut self.data[s..s + nx]
    }

    /// The three stencil rows `j-1, j, j+1` of one variable — the 5-point
    /// kernels' working set, borrowed in one call.
    #[inline]
    pub fn rows3(&self, var: usize, j: i64) -> (&[f64], &[f64], &[f64]) {
        (self.row(var, j - 1), self.row(var, j), self.row(var, j + 1))
    }

    /// Two *distinct* mutable rows of one variable (`ja != jb`), e.g. the
    /// two accumulation targets of a y-interface flux.
    pub fn row_pair_mut(&mut self, var: usize, ja: i64, jb: i64) -> (&mut [f64], &mut [f64]) {
        assert_ne!(ja, jb, "row_pair_mut needs distinct rows");
        let nx = self.total_box().nx() as usize;
        let (sa, sb) = (self.row_start(var, ja), self.row_start(var, jb));
        if sa < sb {
            let (lo, hi) = self.data.split_at_mut(sb);
            (&mut lo[sa..sa + nx], &mut hi[..nx])
        } else {
            let (lo, hi) = self.data.split_at_mut(sa);
            let b = &mut lo[sb..sb + nx];
            (&mut hi[..nx], b)
        }
    }

    /// Read-only flat view of one variable's plane: row and point access
    /// with the plane base and `var` offset hoisted.
    #[inline]
    pub fn view(&self, var: usize) -> VarView<'_> {
        let t = self.total_box();
        let plane = self.plane();
        VarView {
            data: &self.data[var * plane..(var + 1) * plane],
            nx: t.nx() as usize,
            ny: t.ny() as usize,
            lo: t.lo,
        }
    }

    /// Fill a whole variable (interior and ghosts) with a constant.
    pub fn fill_var(&mut self, var: usize, v: f64) {
        let per = self.plane();
        self.data[var * per..(var + 1) * per].fill(v);
    }

    /// Raw storage of one variable's plane: `total.ny()` rows of
    /// `total.nx()` values, ghosts included. For whole-plane comparisons
    /// and diagnostics.
    pub fn var_slice(&self, var: usize) -> &[f64] {
        let per = self.plane();
        &self.data[var * per..(var + 1) * per]
    }

    /// Mutable raw plane of one variable (see [`PatchData::var_slice`]).
    pub fn var_slice_mut(&mut self, var: usize) -> &mut [f64] {
        let per = self.plane();
        &mut self.data[var * per..(var + 1) * per]
    }

    /// Copy variable values over `region` (level coordinates) from
    /// another patch's data. The region must be valid in both.
    pub fn copy_from(&mut self, other: &PatchData, region: &IntBox) {
        debug_assert_eq!(self.nvars, other.nvars);
        let w = region.nx() as usize;
        let di = (region.lo[0] - self.total_box().lo[0]) as usize;
        let si = (region.lo[0] - other.total_box().lo[0]) as usize;
        for var in 0..self.nvars {
            for j in region.lo[1]..=region.hi[1] {
                let src = &other.row(var, j)[si..si + w];
                self.row_mut(var, j)[di..di + w].copy_from_slice(src);
            }
        }
    }

    /// Pack `region` of all variables into a flat buffer (for message
    /// passing), row-major per variable — the Data Object's
    /// "packing/unpacking of data before/after message passing".
    pub fn pack(&self, region: &IntBox) -> Vec<f64> {
        let mut out = vec![0.0; self.nvars * region.count() as usize];
        self.pack_into(region, &mut out);
        out
    }

    /// Allocation-free form of [`PatchData::pack`]: fill a caller-owned
    /// buffer of exactly `nvars * region.count()` elements. Ghost
    /// exchange calls this with pooled scratch so the steady-state
    /// exchange never touches the heap.
    pub fn pack_into(&self, region: &IntBox, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.nvars * region.count() as usize);
        let w = region.nx() as usize;
        let si = (region.lo[0] - self.total_box().lo[0]) as usize;
        let mut k = 0;
        for var in 0..self.nvars {
            for j in region.lo[1]..=region.hi[1] {
                out[k..k + w].copy_from_slice(&self.row(var, j)[si..si + w]);
                k += w;
            }
        }
    }

    /// Pack `region` of a *single* variable into `out` (row-major),
    /// `region.count()` elements. The uncoalesced halo path sends one
    /// such buffer per variable; the coalesced path uses
    /// [`PatchData::pack_into`] to ship all variables in one message.
    pub fn pack_var_into(&self, var: usize, region: &IntBox, out: &mut [f64]) {
        debug_assert_eq!(out.len(), region.count() as usize);
        let w = region.nx() as usize;
        let si = (region.lo[0] - self.total_box().lo[0]) as usize;
        let mut k = 0;
        for j in region.lo[1]..=region.hi[1] {
            out[k..k + w].copy_from_slice(&self.row(var, j)[si..si + w]);
            k += w;
        }
    }

    /// Unpack a single-variable buffer produced by
    /// [`PatchData::pack_var_into`] over the same region shape.
    pub fn unpack_var(&mut self, var: usize, region: &IntBox, buf: &[f64]) {
        debug_assert_eq!(buf.len(), region.count() as usize);
        let w = region.nx() as usize;
        let di = (region.lo[0] - self.total_box().lo[0]) as usize;
        let mut k = 0;
        for j in region.lo[1]..=region.hi[1] {
            self.row_mut(var, j)[di..di + w].copy_from_slice(&buf[k..k + w]);
            k += w;
        }
    }

    /// Unpack a buffer produced by [`PatchData::pack`] over the same
    /// (translated) region shape.
    pub fn unpack(&mut self, region: &IntBox, buf: &[f64]) {
        debug_assert_eq!(buf.len(), self.nvars * region.count() as usize);
        let w = region.nx() as usize;
        let di = (region.lo[0] - self.total_box().lo[0]) as usize;
        let mut k = 0;
        for var in 0..self.nvars {
            for j in region.lo[1]..=region.hi[1] {
                self.row_mut(var, j)[di..di + w].copy_from_slice(&buf[k..k + w]);
                k += w;
            }
        }
    }

    /// Sum of one variable over the interior (diagnostics, conservation
    /// tests). One running accumulator in row-major order — the exact
    /// rounding sequence of a flat cell loop.
    pub fn interior_sum(&self, var: usize) -> f64 {
        let int = self.interior;
        let w = int.nx() as usize;
        let si = (int.lo[0] - self.total_box().lo[0]) as usize;
        let mut acc = 0.0;
        for j in int.lo[1]..=int.hi[1] {
            for &x in &self.row(var, j)[si..si + w] {
                acc += x;
            }
        }
        acc
    }

    /// Max-norm of one variable over the interior.
    pub fn interior_max_abs(&self, var: usize) -> f64 {
        let int = self.interior;
        let w = int.nx() as usize;
        let si = (int.lo[0] - self.total_box().lo[0]) as usize;
        let mut m: f64 = 0.0;
        for j in int.lo[1]..=int.hi[1] {
            m = self.row(var, j)[si..si + w]
                .iter()
                .fold(m, |a, v| a.max(v.abs()));
        }
        m
    }
}

/// Read-only view of one variable's plane with the plane base hoisted:
/// the flat accessor stencil kernels index through instead of
/// recomputing `var * plane` per touch.
#[derive(Clone, Copy)]
pub struct VarView<'a> {
    data: &'a [f64],
    nx: usize,
    ny: usize,
    lo: [i64; 2],
}

impl<'a> VarView<'a> {
    /// Row `j` (level coordinate), valid for the view's lifetime —
    /// several rows of the same view can be held at once.
    #[inline]
    pub fn row(&self, j: i64) -> &'a [f64] {
        let jj = (j - self.lo[1]) as usize;
        debug_assert!(jj < self.ny, "row {j} outside view");
        &self.data[jj * self.nx..(jj + 1) * self.nx]
    }

    /// Local column index of level coordinate `i`.
    #[inline]
    pub fn col(&self, i: i64) -> usize {
        debug_assert!(i >= self.lo[0] && ((i - self.lo[0]) as usize) < self.nx);
        (i - self.lo[0]) as usize
    }

    /// Point read (bounds-checked via the row slice).
    #[inline]
    pub fn at(&self, i: i64, j: i64) -> f64 {
        self.row(j)[self.col(i)]
    }
}

/// A named set of per-patch arrays across a whole hierarchy: one
/// [`PatchData`] per patch id per level. "Typically... a simulation would
/// contain 2–3 Data Objects" (e.g. conserved variables, transport
/// coefficients, RHS accumulators).
#[derive(Clone, Debug, Default)]
pub struct DataObject {
    /// `levels[l][patch_id] -> PatchData`.
    levels: Vec<BTreeMap<usize, PatchData>>,
    /// Variables per patch.
    pub nvars: usize,
    /// Ghost width.
    pub nghost: i64,
}

impl DataObject {
    /// Empty data object with the given shape parameters.
    pub fn new(nvars: usize, nghost: i64) -> Self {
        DataObject {
            levels: Vec::new(),
            nvars,
            nghost,
        }
    }

    /// Ensure storage exists for `nlevels` levels.
    pub fn ensure_levels(&mut self, nlevels: usize) {
        while self.levels.len() < nlevels {
            self.levels.push(BTreeMap::new());
        }
    }

    /// Number of levels currently held.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Allocate (zeroed) data for a patch.
    pub fn allocate(&mut self, level: usize, patch_id: usize, interior: IntBox) {
        self.ensure_levels(level + 1);
        self.levels[level].insert(patch_id, PatchData::new(interior, self.nvars, self.nghost));
    }

    /// Drop a patch's data (patch destroyed in regridding).
    pub fn deallocate(&mut self, level: usize, patch_id: usize) {
        if let Some(l) = self.levels.get_mut(level) {
            l.remove(&patch_id);
        }
    }

    /// Remove an entire level (and any finer bookkeeping the caller does).
    pub fn clear_level(&mut self, level: usize) {
        if let Some(l) = self.levels.get_mut(level) {
            l.clear();
        }
    }

    /// Shared access to a patch's data.
    pub fn patch(&self, level: usize, patch_id: usize) -> Option<&PatchData> {
        self.levels.get(level).and_then(|l| l.get(&patch_id))
    }

    /// Mutable access to a patch's data.
    pub fn patch_mut(&mut self, level: usize, patch_id: usize) -> Option<&mut PatchData> {
        self.levels
            .get_mut(level)
            .and_then(|l| l.get_mut(&patch_id))
    }

    /// Take a patch's data out (used when rebuilding a level keeps old
    /// data around for copy-initialization).
    pub fn take_level(&mut self, level: usize) -> BTreeMap<usize, PatchData> {
        if let Some(l) = self.levels.get_mut(level) {
            std::mem::take(l)
        } else {
            BTreeMap::new()
        }
    }

    /// Insert pre-built patch data.
    pub fn insert(&mut self, level: usize, patch_id: usize, data: PatchData) {
        self.ensure_levels(level + 1);
        self.levels[level].insert(patch_id, data);
    }

    /// Move one patch's data out (the disjoint-ownership handoff of the
    /// parallel patch executor); re-attach with [`DataObject::insert`].
    pub fn take_patch(&mut self, level: usize, patch_id: usize) -> Option<PatchData> {
        self.levels.get_mut(level).and_then(|l| l.remove(&patch_id))
    }

    /// Ids of patches with data on `level`.
    pub fn patch_ids(&self, level: usize) -> Vec<usize> {
        self.levels
            .get(level)
            .map(|l| l.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Two disjoint mutable borrows: a level-`lf` patch and a level-`lc`
    /// patch (`lf != lc`), for coarse-fine transfer without cloning.
    pub fn patch_pair_mut(
        &mut self,
        level_a: usize,
        id_a: usize,
        level_b: usize,
        id_b: usize,
    ) -> Option<(&mut PatchData, &PatchData)> {
        assert_ne!(level_a, level_b, "use same-level copy for {level_a}");
        let (la, lb) = if level_a < level_b {
            let (lo, hi) = self.levels.split_at_mut(level_b);
            (&mut lo[level_a], &mut hi[0])
        } else {
            let (lo, hi) = self.levels.split_at_mut(level_a);
            (&mut hi[0], &mut lo[level_b])
        };
        let a = la.get_mut(&id_a)?;
        let b = lb.get(&id_b)?;
        Some((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_with_ghosts() {
        let mut pd = PatchData::new(IntBox::sized(4, 3), 2, 2);
        pd.set(1, -2, -2, 7.0); // far ghost corner
        pd.set(0, 3, 2, 1.5); // interior far corner
        assert_eq!(pd.get(1, -2, -2), 7.0);
        assert_eq!(pd.get(0, 3, 2), 1.5);
        assert_eq!(pd.get(0, 0, 0), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside")]
    fn out_of_bounds_debug_panics() {
        let pd = PatchData::new(IntBox::sized(2, 2), 1, 1);
        let _ = pd.get(0, 4, 0);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut a = PatchData::new(IntBox::sized(5, 5), 3, 1);
        for (k, (i, j)) in IntBox::sized(5, 5).cells().enumerate() {
            for v in 0..3 {
                a.set(v, i, j, (k * 3 + v) as f64);
            }
        }
        let region = IntBox::new([1, 1], [3, 2]);
        let buf = a.pack(&region);
        assert_eq!(buf.len(), 3 * 6);
        let mut b = PatchData::new(IntBox::sized(5, 5), 3, 1);
        b.unpack(&region, &buf);
        for (i, j) in region.cells() {
            for v in 0..3 {
                assert_eq!(b.get(v, i, j), a.get(v, i, j));
            }
        }
        // Outside the region b is untouched.
        assert_eq!(b.get(0, 0, 0), 0.0);
    }

    #[test]
    fn copy_from_region() {
        let mut src = PatchData::new(IntBox::sized(3, 3), 1, 0);
        src.fill_var(0, 4.0);
        let mut dst = PatchData::new(IntBox::new([2, 0], [5, 2]), 1, 0);
        let overlap = src.interior.intersect(&dst.interior).unwrap();
        dst.copy_from(&src, &overlap);
        assert_eq!(dst.get(0, 2, 1), 4.0);
        assert_eq!(dst.get(0, 3, 1), 0.0);
    }

    #[test]
    fn data_object_lifecycle() {
        let mut dobj = DataObject::new(2, 1);
        dobj.allocate(0, 0, IntBox::sized(4, 4));
        dobj.allocate(1, 10, IntBox::sized(8, 8));
        assert_eq!(dobj.patch_ids(0), vec![0]);
        assert_eq!(dobj.patch_ids(1), vec![10]);
        dobj.patch_mut(1, 10).unwrap().fill_var(0, 2.0);
        assert_eq!(dobj.patch(1, 10).unwrap().get(0, 3, 3), 2.0);
        dobj.deallocate(1, 10);
        assert!(dobj.patch(1, 10).is_none());
    }

    #[test]
    fn patch_pair_mut_cross_level() {
        let mut dobj = DataObject::new(1, 0);
        dobj.allocate(0, 0, IntBox::sized(2, 2));
        dobj.allocate(1, 1, IntBox::sized(4, 4));
        {
            let (fine, coarse) = dobj.patch_pair_mut(1, 1, 0, 0).unwrap();
            fine.set(0, 0, 0, coarse.get(0, 0, 0) + 5.0);
        }
        assert_eq!(dobj.patch(1, 1).unwrap().get(0, 0, 0), 5.0);
    }

    #[test]
    fn interior_reductions_ignore_ghosts() {
        let mut pd = PatchData::new(IntBox::sized(2, 2), 1, 1);
        pd.fill_var(0, 1.0); // fills ghosts too
        assert_eq!(pd.interior_sum(0), 4.0);
        pd.set(0, -1, -1, -100.0);
        assert_eq!(pd.interior_max_abs(0), 1.0);
    }

    /// Fill a patch with a deterministic per-cell pattern.
    fn pattern(pd: &mut PatchData) {
        let t = pd.total_box();
        for var in 0..pd.nvars {
            for (k, (i, j)) in t.cells().enumerate() {
                pd.set(var, i, j, (var * 1000 + k) as f64 * 0.5 - 7.0);
            }
        }
    }

    #[test]
    fn rows3_and_view_agree_with_get() {
        let mut pd = PatchData::new(IntBox::sized(6, 4), 2, 1);
        pattern(&mut pd);
        let (below, mid, above) = pd.rows3(1, 2);
        let v = pd.view(1);
        let c = v.col(3);
        assert_eq!(below[c], pd.get(1, 3, 1));
        assert_eq!(mid[c], pd.get(1, 3, 2));
        assert_eq!(above[c], pd.get(1, 3, 3));
        assert_eq!(v.at(3, 2), pd.get(1, 3, 2));
        assert_eq!(v.row(2)[c], pd.get(1, 3, 2));
    }

    #[test]
    fn row_pair_mut_borrows_disjoint_rows() {
        let mut pd = PatchData::new(IntBox::sized(4, 4), 1, 0);
        {
            let (a, b) = pd.row_pair_mut(0, 1, 2);
            a.fill(1.0);
            b.fill(2.0);
        }
        {
            // Reversed order works too.
            let (a, b) = pd.row_pair_mut(0, 3, 0);
            a.fill(3.0);
            b.fill(0.5);
        }
        assert_eq!(pd.get(0, 2, 1), 1.0);
        assert_eq!(pd.get(0, 2, 2), 2.0);
        assert_eq!(pd.get(0, 2, 3), 3.0);
        assert_eq!(pd.get(0, 2, 0), 0.5);
    }

    #[test]
    fn equality_compares_values() {
        let ib = IntBox::sized(5, 4);
        let mut a = PatchData::new(ib, 1, 1);
        let mut b = PatchData::new(ib, 1, 1);
        pattern(&mut a);
        pattern(&mut b);
        assert_eq!(a, b);
        b.set(0, 2, 2, 42.0);
        assert_ne!(a, b);
    }
}

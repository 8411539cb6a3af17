//! Projected rows: materialized partial tuples.
//!
//! A `ProjectedRow` names a subset of a table's storage columns and carries a
//! raw attribute image (≤ 16 bytes) plus a NULL flag for each. It is used as
//!
//! * the **input** of inserts and updates (the "delta" a transaction wants to
//!   apply),
//! * the **output** of `select` (the materialized version visible to the
//!   reader, §3.1 "early materialization"),
//! * the **before-image payload** of undo records and the after-image of
//!   redo records (copied bit-wise in and out of buffer segments).
//!
//! Varlen attributes are represented by their 16-byte `VarlenEntry` image;
//! ownership of out-of-line buffers is tracked by the transaction layer.

use crate::layout::BlockLayout;
use crate::varlen::VarlenEntry;
use mainline_common::value::{TypeId, Value};

/// One attribute image within a projected row.
#[derive(Clone, Copy)]
pub struct AttrImage {
    /// Storage column id (1-based; 0 is the hidden version column).
    pub col: u16,
    /// NULL flag.
    pub null: bool,
    /// Raw attribute bytes (first `attr_size` bytes are meaningful).
    pub image: [u8; 16],
}

impl AttrImage {
    /// Interpret the image as a varlen entry.
    #[inline]
    pub fn as_varlen(&self) -> VarlenEntry {
        unsafe { std::mem::transmute::<[u8; 16], VarlenEntry>(self.image) }
    }

    /// Build an image from a varlen entry.
    #[inline]
    pub fn from_varlen(col: u16, null: bool, e: VarlenEntry) -> Self {
        AttrImage { col, null, image: unsafe { std::mem::transmute::<VarlenEntry, [u8; 16]>(e) } }
    }
}

impl std::fmt::Debug for AttrImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AttrImage(col={}, null={})", self.col, self.null)
    }
}

/// A partial row over a table's storage columns.
#[derive(Debug, Clone, Default)]
pub struct ProjectedRow {
    attrs: Vec<AttrImage>,
}

impl ProjectedRow {
    /// Empty projection.
    pub fn new() -> Self {
        ProjectedRow { attrs: Vec::new() }
    }

    /// Projection pre-sized for `n` columns.
    pub fn with_capacity(n: usize) -> Self {
        ProjectedRow { attrs: Vec::with_capacity(n) }
    }

    /// Attribute images in insertion order.
    pub fn attrs(&self) -> &[AttrImage] {
        &self.attrs
    }

    /// Mutable access (used by select to materialize in place).
    pub fn attrs_mut(&mut self) -> &mut [AttrImage] {
        &mut self.attrs
    }

    /// Number of projected columns.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when no columns are projected.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Find the position of storage column `col`.
    pub fn find(&self, col: u16) -> Option<usize> {
        self.attrs.iter().position(|a| a.col == col)
    }

    /// Append a raw image.
    pub fn push_raw(&mut self, col: u16, null: bool, image: [u8; 16]) {
        debug_assert!(self.find(col).is_none(), "duplicate column {col}");
        self.attrs.push(AttrImage { col, null, image });
    }

    /// Append a NULL attribute.
    pub fn push_null(&mut self, col: u16) {
        self.push_raw(col, true, [0u8; 16]);
    }

    /// Append a fixed-width attribute from a logical value.
    ///
    /// Panics if the value is varlen (use [`Self::push_varlen`]).
    pub fn push_fixed(&mut self, col: u16, v: &Value) {
        let mut image = [0u8; 16];
        v.encode_fixed(&mut image);
        self.push_raw(col, false, image);
    }

    /// Append a varlen attribute image.
    pub fn push_varlen(&mut self, col: u16, e: VarlenEntry) {
        self.attrs.push(AttrImage::from_varlen(col, false, e));
    }

    /// Build a full-row projection from logical values (insert path).
    ///
    /// `types[i]` describes user column `i` (storage column `i + 1`). Varlen
    /// values allocate owning entries — ownership passes to the caller (the
    /// transaction layer transfers it into the table on insert).
    pub fn from_values(types: &[TypeId], values: &[Value]) -> Self {
        assert_eq!(types.len(), values.len());
        let mut row = ProjectedRow::with_capacity(values.len());
        for (i, (ty, v)) in types.iter().zip(values).enumerate() {
            let col = (i + 1) as u16;
            assert!(v.compatible_with(*ty), "column {col}: {v:?} vs {ty:?}");
            match v {
                Value::Null => row.push_null(col),
                Value::Varchar(bytes) => row.push_varlen(col, VarlenEntry::from_bytes(bytes)),
                other => row.push_fixed(col, other),
            }
        }
        row
    }

    /// Each attribute's value bytes as the log carries them, in row order:
    /// `None` for NULL, the first `attr_size` bytes of a fixed image, the
    /// whole value of a varlen one (borrowed, not copied).
    ///
    /// # Safety
    /// For varlen attributes, the entry's buffer must stay alive while the
    /// returned slices are used.
    pub unsafe fn value_bytes<'a>(
        &'a self,
        layout: &'a BlockLayout,
    ) -> impl Iterator<Item = (u16, Option<&'a [u8]>)> + 'a {
        self.attrs.iter().map(move |a| {
            let bytes = if a.null {
                None
            } else if layout.is_varlen(a.col) {
                // SAFETY: the caller keeps the entry's buffer alive.
                Some(unsafe { VarlenEntry::image_bytes(&a.image) })
            } else {
                Some(&a.image[..layout.attr_size(a.col) as usize])
            };
            (a.col, bytes)
        })
    }

    /// Decode one attribute back into a logical value.
    ///
    /// # Safety
    /// For varlen attributes, the entry's buffer must still be alive.
    pub unsafe fn value_at(&self, idx: usize, layout: &BlockLayout, ty: TypeId) -> Value {
        let a = &self.attrs[idx];
        if a.null {
            return Value::Null;
        }
        if layout.is_varlen(a.col) {
            Value::Varchar(a.as_varlen().to_vec())
        } else {
            Value::decode_fixed(ty, &a.image[..layout.attr_size(a.col) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mainline_common::schema::{ColumnDef, Schema};

    fn layout() -> BlockLayout {
        BlockLayout::from_schema(&Schema::new(vec![
            ColumnDef::new("a", TypeId::BigInt),
            ColumnDef::nullable("v", TypeId::Varchar),
            ColumnDef::new("c", TypeId::Integer),
        ]))
        .unwrap()
    }

    #[test]
    fn from_values_roundtrip() {
        let l = layout();
        let types = [TypeId::BigInt, TypeId::Varchar, TypeId::Integer];
        let values =
            vec![Value::BigInt(42), Value::string("a rather long string here"), Value::Integer(-7)];
        let row = ProjectedRow::from_values(&types, &values);
        assert_eq!(row.len(), 3);
        unsafe {
            assert_eq!(row.value_at(0, &l, TypeId::BigInt), values[0]);
            assert_eq!(row.value_at(1, &l, TypeId::Varchar), values[1]);
            assert_eq!(row.value_at(2, &l, TypeId::Integer), values[2]);
            // Clean up the owning entry.
            row.attrs()[1].as_varlen().free_buffer();
        }
    }

    #[test]
    fn value_bytes_borrow_every_kind() {
        let l = layout();
        let types = [TypeId::BigInt, TypeId::Varchar, TypeId::Integer];
        let heap = "a value past the inline threshold";
        for (text, c) in [(Some("inline"), 5), (Some(heap), -1), (None, 0)] {
            let values =
                [Value::BigInt(-3), text.map_or(Value::Null, Value::string), Value::Integer(c)];
            let row = ProjectedRow::from_values(&types, &values);
            // SAFETY: the row owns its heap entry until freed below.
            let got: Vec<_> = unsafe { row.value_bytes(&l) }.collect();
            let (a, c) = ((-3i64).to_le_bytes(), c.to_le_bytes());
            assert_eq!(
                got,
                vec![(1, Some(&a[..])), (2, text.map(str::as_bytes)), (3, Some(&c[..]))]
            );
            unsafe { row.attrs()[1].as_varlen().free_buffer() };
        }
    }

    #[test]
    fn null_attrs() {
        let l = layout();
        let types = [TypeId::BigInt, TypeId::Varchar, TypeId::Integer];
        let values = vec![Value::BigInt(1), Value::Null, Value::Integer(2)];
        let row = ProjectedRow::from_values(&types, &values);
        assert!(row.attrs()[1].null);
        unsafe {
            assert_eq!(row.value_at(1, &l, TypeId::Varchar), Value::Null);
        }
    }

    #[test]
    fn find_by_column() {
        let types = [TypeId::BigInt, TypeId::Varchar, TypeId::Integer];
        let values = vec![Value::BigInt(1), Value::Null, Value::Integer(2)];
        let row = ProjectedRow::from_values(&types, &values);
        assert_eq!(row.find(1), Some(0));
        assert_eq!(row.find(3), Some(2));
        assert_eq!(row.find(0), None);
        assert_eq!(row.find(9), None);
    }

    #[test]
    fn varlen_image_transmute_roundtrip() {
        let e = VarlenEntry::from_bytes(b"short");
        let img = AttrImage::from_varlen(4, false, e);
        assert_eq!(img.col, 4);
        let back = img.as_varlen();
        assert!(back.bits_eq(&e));
        assert_eq!(unsafe { back.as_slice() }, b"short");
    }

    #[test]
    #[should_panic]
    fn type_mismatch_rejected() {
        ProjectedRow::from_values(&[TypeId::BigInt], &[Value::Integer(1)]);
    }
}

//! Heap synchronization deltas.

use serde::{Deserialize, Serialize};
use tinman_taint::TaintSet;
use tinman_vm::{Heap, HeapKind, ObjId, Value};

use crate::error::DsmError;
use crate::token::CorMaterializer;

/// One object's worth of synchronization state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DeltaEntry {
    /// A full, untainted object (new since the last sync, or an initial
    /// sync entry).
    Whole {
        /// Object id (consistent across endpoints).
        id: ObjId,
        /// Full payload.
        kind: HeapKind,
    },
    /// A partial update: only the dirty fields of an untainted instance.
    Fields {
        /// Object id.
        id: ObjId,
        /// `(field index, new value)` pairs.
        updates: Vec<(u16, Value)>,
    },
    /// A tainted object, shipped as a content-free cor token.
    Cor {
        /// Object id.
        id: ObjId,
        /// The token standing in for the content.
        token: crate::token::CorToken,
    },
}

impl DeltaEntry {
    /// The object this entry updates.
    pub fn id(&self) -> ObjId {
        match self {
            DeltaEntry::Whole { id, .. }
            | DeltaEntry::Fields { id, .. }
            | DeltaEntry::Cor { id, .. } => *id,
        }
    }
}

/// A heap synchronization message.
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct HeapDelta {
    /// Object entries, in ascending id order (new objects must be applied
    /// in allocation order).
    pub entries: Vec<DeltaEntry>,
    /// The sender's intern table, so pooled-string constants resolve to the
    /// same objects on both endpoints.
    pub intern_table: Vec<Option<ObjId>>,
}

impl HeapDelta {
    /// Builds a delta carrying **every** object — the initial sync that
    /// dominates Table 3's "Off. Init" column.
    pub fn build_full(heap: &Heap, mat: &mut dyn CorMaterializer) -> Result<HeapDelta, DsmError> {
        Self::build_inner(heap, mat, /* only_unsynced = */ false)
    }

    /// Builds a delta carrying only objects created or dirtied since the
    /// last sync — the small "Off. Dirty" syncs.
    pub fn build_dirty(heap: &Heap, mat: &mut dyn CorMaterializer) -> Result<HeapDelta, DsmError> {
        Self::build_inner(heap, mat, /* only_unsynced = */ true)
    }

    fn build_inner(
        heap: &Heap,
        mat: &mut dyn CorMaterializer,
        only_unsynced: bool,
    ) -> Result<HeapDelta, DsmError> {
        let mut entries = Vec::new();
        for (id, obj) in heap.iter() {
            let include = !only_unsynced || obj.fresh || obj.is_dirty();
            if !include {
                continue;
            }
            if obj.taint.is_tainted() {
                // The cor exception: content never crosses the wire.
                let token = mat.tokenize(&obj.kind, obj.taint)?;
                entries.push(DeltaEntry::Cor { id, token });
            } else if only_unsynced && !obj.fresh {
                // Known on the other side: ship dirty fields only.
                match &obj.kind {
                    HeapKind::Obj { fields, .. } => {
                        let updates: Vec<(u16, Value)> = fields
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| obj.dirty & (1u64 << (*i as u64).min(63)) != 0)
                            .map(|(i, v)| (i as u16, *v))
                            .collect();
                        entries.push(DeltaEntry::Fields { id, updates });
                    }
                    // Strings are immutable; a dirty array ships whole.
                    _ => entries.push(DeltaEntry::Whole { id, kind: obj.kind.clone() }),
                }
            } else {
                entries.push(DeltaEntry::Whole { id, kind: obj.kind.clone() });
            }
        }
        Ok(HeapDelta { entries, intern_table: heap.intern_table().to_owned() })
    }

    /// Applies this delta to `heap`, materializing cor tokens through
    /// `mat`. The delta is consumed: whole objects and the intern table
    /// move into the heap. After application the touched objects carry no
    /// sync marks.
    pub fn apply(self, heap: &mut Heap, mat: &mut dyn CorMaterializer) -> Result<(), DsmError> {
        for entry in self.entries {
            match entry {
                DeltaEntry::Whole { id, kind } => {
                    heap.apply_object(id, kind, TaintSet::EMPTY)?;
                }
                DeltaEntry::Fields { id, updates } => {
                    heap.apply_fields(id, &updates)?;
                }
                DeltaEntry::Cor { id, token } => {
                    let (kind, taint) = mat.materialize(&token)?;
                    if !token.shape.matches(&kind) {
                        return Err(DsmError::ShapeMismatch {
                            obj: id,
                            detail: format!(
                                "materializer returned {}, token shape {:?}",
                                kind.kind_name(),
                                token.shape
                            ),
                        });
                    }
                    heap.apply_object(id, kind, taint)?;
                }
            }
        }
        heap.set_intern_table(self.intern_table);
        Ok(())
    }

    /// Serialized size in bytes — the number the paper's Table 3 reports:
    /// the length of the canonical JSON encoding (no hand-tuned constant),
    /// counted without writing it.
    pub fn wire_bytes(&self) -> u64 {
        self.json_len()
    }

    /// Number of object entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the delta carries no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if any entry is a cor token.
    pub fn carries_cor(&self) -> bool {
        self.entries.iter().any(|e| matches!(e, DeltaEntry::Cor { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::PassthroughMaterializer;
    use tinman_taint::Label;

    fn tainted() -> TaintSet {
        Label::new(1).unwrap().as_set()
    }

    /// Scans the serialized wire form for a plaintext needle.
    fn wire_contains(delta: &HeapDelta, needle: &str) -> bool {
        serde_json::to_string(delta).expect("a delta serializes").contains(needle)
    }

    #[test]
    fn full_delta_round_trips_a_heap() {
        let mut src = Heap::new();
        src.alloc_str("hello");
        let arr = src.alloc_arr(3);
        src.arr_set(arr, 1, Value::Int(9)).unwrap();
        let obj = src.alloc_obj(0, 2);
        src.field_set(obj, 0, Value::Ref(arr)).unwrap();

        let mut mat = PassthroughMaterializer;
        let delta = HeapDelta::build_full(&src, &mut mat).unwrap();
        assert_eq!(delta.len(), 3);

        let mut dst = Heap::new();
        delta.apply(&mut dst, &mut mat).unwrap();
        assert_eq!(dst.len(), 3);
        assert_eq!(dst.str_value(ObjId(0)).unwrap(), "hello");
        assert_eq!(dst.arr_get(arr, 1).unwrap(), Value::Int(9));
        assert_eq!(dst.field_get(obj, 0).unwrap(), Value::Ref(arr));
    }

    #[test]
    fn dirty_delta_ships_only_changes() {
        let mut src = Heap::new();
        let obj = src.alloc_obj(0, 4);
        src.alloc_str("stable");
        src.clear_sync_marks();

        src.field_set(obj, 2, Value::Int(7)).unwrap();
        let fresh = src.alloc_str("fresh");

        let mut mat = PassthroughMaterializer;
        let delta = HeapDelta::build_dirty(&src, &mut mat).unwrap();
        assert_eq!(delta.len(), 2);
        assert!(matches!(&delta.entries[0], DeltaEntry::Fields { id, updates }
            if *id == obj && updates == &vec![(2u16, Value::Int(7))]));
        assert!(matches!(&delta.entries[1], DeltaEntry::Whole { id, .. } if *id == fresh));
    }

    #[test]
    fn dirty_delta_much_smaller_than_full() {
        let mut src = Heap::new();
        for i in 0..100 {
            src.alloc_str(format!("object number {i} with some payload"));
        }
        let obj = src.alloc_obj(0, 2);
        src.clear_sync_marks();
        src.field_set(obj, 0, Value::Int(1)).unwrap();

        let mut mat = PassthroughMaterializer;
        let full = HeapDelta::build_full(&src, &mut mat).unwrap();
        let dirty = HeapDelta::build_dirty(&src, &mut mat).unwrap();
        assert!(full.wire_bytes() > 10 * dirty.wire_bytes());
    }

    #[test]
    fn tainted_content_never_serializes() {
        let mut src = Heap::new();
        src.alloc_str_tainted("hunter2-the-plaintext", tainted());
        src.alloc_str("public");

        let mut mat = PassthroughMaterializer;
        let delta = HeapDelta::build_full(&src, &mut mat).unwrap();
        assert!(delta.carries_cor());
        assert!(!wire_contains(&delta, "hunter2"), "cor plaintext must not cross the wire");
        assert!(wire_contains(&delta, "public"));
    }

    #[test]
    fn cor_token_materializes_with_shape_and_taint() {
        let mut src = Heap::new();
        let cor = src.alloc_str_tainted("8charsec", tainted());
        let mut mat = PassthroughMaterializer;
        let delta = HeapDelta::build_full(&src, &mut mat).unwrap();

        let mut dst = Heap::new();
        delta.apply(&mut dst, &mut mat).unwrap();
        assert_eq!(dst.str_value(cor).unwrap().len(), 8, "placeholder shares the cor's size");
        assert_eq!(dst.taint_of(cor).unwrap(), tainted());
    }

    #[test]
    fn apply_rejects_gapped_delta() {
        let delta = HeapDelta {
            entries: vec![DeltaEntry::Whole { id: ObjId(5), kind: HeapKind::Str("x".into()) }],
            intern_table: Vec::new(),
        };
        let mut dst = Heap::new();
        let mut mat = PassthroughMaterializer;
        assert!(delta.apply(&mut dst, &mut mat).is_err());
    }

    #[test]
    fn intern_table_travels_with_delta() {
        let mut src = Heap::new();
        src.intern_str(0, "const");
        let mut mat = PassthroughMaterializer;
        let delta = HeapDelta::build_full(&src, &mut mat).unwrap();
        let mut dst = Heap::new();
        delta.apply(&mut dst, &mut mat).unwrap();
        // The receiving side resolves the same pool index without a new
        // allocation.
        assert_eq!(dst.intern_str(0, "const"), ObjId(0));
        assert_eq!(dst.len(), 1);
    }

    #[test]
    fn wire_bytes_nonzero_and_monotone() {
        let mut h = Heap::new();
        let mut mat = PassthroughMaterializer;
        let d0 = HeapDelta::build_full(&h, &mut mat).unwrap();
        h.alloc_str("payload payload payload");
        let d1 = HeapDelta::build_full(&h, &mut mat).unwrap();
        assert!(d1.wire_bytes() > d0.wire_bytes());
        assert!(d0.wire_bytes() > 0, "even an empty delta has framing");
    }
}

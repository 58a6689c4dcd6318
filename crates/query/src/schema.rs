//! The 28-attribute sensor relation schema (Appendix B).
//!
//! 18 attributes carry physical or soft readings (dynamic); the rest are
//! static: identifiers, deployment coordinates, and extended attributes
//! assigned from the base station (role, room, floor...). All attributes
//! are 16-bit integers, "common for most hardware" (§4).

/// Attribute identifier; doubles as the index into a tuple's value array.
pub type AttrId = u8;

// --- Static attributes (known at tree-construction time) ---------------
/// Unique node identifier.
pub const ATTR_ID: AttrId = 0;
/// Synthetic spatially-exponential attribute, range [7, 60] (Table 1).
pub const ATTR_X: AttrId = 1;
/// Synthetic uniform attribute, range [0, 10) (Table 1).
pub const ATTR_Y: AttrId = 2;
/// Column of the node's cell in a 4x4 partition of the area (Table 1).
pub const ATTR_CID: AttrId = 3;
/// Row of the node's cell in a 4x4 partition of the area (Table 1).
pub const ATTR_RID: AttrId = 4;
/// Deployment x coordinate in decimeters (Table 1's `pos`).
pub const ATTR_POS_X: AttrId = 5;
/// Deployment y coordinate in decimeters.
pub const ATTR_POS_Y: AttrId = 6;
/// Pairing key for 1:1 queries (Query 0's random endpoints).
pub const ATTR_PAIR: AttrId = 7;
/// Extended attribute: role assigned by flooding.
pub const ATTR_ROLE: AttrId = 8;
/// Extended attribute: room number.
pub const ATTR_ROOM: AttrId = 9;
/// Extended attribute: floor number.
pub const ATTR_FLOOR: AttrId = 10;
/// Extended attribute: administrative group.
pub const ATTR_GROUP: AttrId = 11;

// --- Dynamic attributes (sampled every cycle) ---------------------------
/// Synthetic join attribute, uniform on [0, ceil(1/sigma_st)) (Table 1).
pub const ATTR_U: AttrId = 12;
/// Humidity (raw ADC scale) — the Intel dataset's `v` (Table 1).
pub const ATTR_V: AttrId = 13;
/// Temperature reading.
pub const ATTR_TEMP: AttrId = 14;
/// Light reading.
pub const ATTR_LIGHT: AttrId = 15;
/// Battery voltage.
pub const ATTR_BATTERY: AttrId = 16;
/// RFID tag currently detected.
pub const ATTR_RFID: AttrId = 17;
/// Raw ADC channels 0-3.
pub const ATTR_ADC0: AttrId = 18;
pub const ATTR_ADC1: AttrId = 19;
pub const ATTR_ADC2: AttrId = 20;
pub const ATTR_ADC3: AttrId = 21;
/// Accelerometer axes.
pub const ATTR_ACCEL_X: AttrId = 22;
pub const ATTR_ACCEL_Y: AttrId = 23;
/// Soft reading: free RAM at the mote.
pub const ATTR_MEM_FREE: AttrId = 24;
/// Soft reading: local time (low 16 bits of the cycle counter).
pub const ATTR_LOCAL_TIME: AttrId = 25;
/// Soft reading: parent in the primary routing tree.
pub const ATTR_PARENT: AttrId = 26;
/// Soft reading: queue occupancy.
pub const ATTR_QUEUE_LEN: AttrId = 27;

/// Total number of attributes in the sensor relation schema.
pub const NUM_ATTRS: usize = 28;

/// First dynamic attribute id; everything below is static.
pub const FIRST_DYNAMIC: AttrId = ATTR_U;

/// Schema metadata: static/dynamic split and attribute names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schema;

impl Schema {
    /// Whether an attribute is static — i.e., usable for pre-evaluation and
    /// content routing (§2: "many attributes in a sensor network are
    /// actually static").
    pub fn is_static(attr: AttrId) -> bool {
        attr < FIRST_DYNAMIC
    }

    pub fn is_valid(attr: AttrId) -> bool {
        (attr as usize) < NUM_ATTRS
    }

    pub fn name(attr: AttrId) -> &'static str {
        const NAMES: [&str; NUM_ATTRS] = [
            "id",
            "x",
            "y",
            "cid",
            "rid",
            "pos_x",
            "pos_y",
            "pair",
            "role",
            "room",
            "floor",
            "group",
            "u",
            "v",
            "temp",
            "light",
            "battery",
            "rfid",
            "adc0",
            "adc1",
            "adc2",
            "adc3",
            "accel_x",
            "accel_y",
            "mem_free",
            "local_time",
            "parent",
            "queue_len",
        ];
        NAMES[attr as usize]
    }

    /// Resolve an attribute by name (parser support).
    pub fn by_name(name: &str) -> Option<AttrId> {
        (0..NUM_ATTRS as u8).find(|&a| Self::name(a) == name)
    }

    pub fn all() -> impl Iterator<Item = AttrId> {
        0..NUM_ATTRS as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_28_attributes() {
        assert_eq!(NUM_ATTRS, 28);
        assert_eq!(Schema::all().count(), 28);
    }

    #[test]
    fn static_dynamic_split() {
        assert!(Schema::is_static(ATTR_ID));
        assert!(Schema::is_static(ATTR_POS_Y));
        assert!(!Schema::is_static(ATTR_U));
        assert!(!Schema::is_static(ATTR_V));
        // Appendix B: most attributes carry readings (dynamic), 12 of 28
        // are static.
        assert_eq!(Schema::all().filter(|&a| Schema::is_static(a)).count(), 12);
    }

    #[test]
    fn names_roundtrip() {
        for a in Schema::all() {
            assert_eq!(Schema::by_name(Schema::name(a)), Some(a));
        }
        assert_eq!(Schema::by_name("nope"), None);
    }

    #[test]
    fn well_known_ids() {
        assert_eq!(Schema::name(ATTR_ID), "id");
        assert_eq!(Schema::name(ATTR_U), "u");
        assert_eq!(Schema::name(ATTR_V), "v");
        assert_eq!(Schema::name(ATTR_CID), "cid");
    }
}

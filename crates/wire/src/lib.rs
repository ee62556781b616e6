//! # replend-wire
//!
//! The workspace's deterministic binary wire format, built on the
//! serde data model: the encoding of everything the workspace writes
//! to disk — the reputation service's write-ahead journal, its engine
//! checkpoints, and `.scn` scenario files.
//!
//! ## Encoding
//!
//! Non-self-describing, positional, byte-oriented (`bincode`-style):
//!
//! * fixed-width integers are little-endian (`usize` travels as
//!   `u64`, `isize` as `i64`);
//! * floats are the IEEE-754 bit pattern, little-endian — **bit
//!   exact**, so a reputation decodes to the same `f64` bits it was
//!   encoded from (byte-identical restart from a journal or
//!   checkpoint depends on this);
//! * `bool` is one byte (`0`/`1`; anything else is a decode error);
//! * `Option` is a one-byte tag (`0` = `None`, `1` = `Some`) followed
//!   by the value;
//! * sequences and strings carry a `u64` element/byte count followed
//!   by the elements;
//! * structs, tuples and tuple structs encode their fields in
//!   declaration order with no tags or names;
//! * enum variants encode the `u32` variant index, then the content.
//!
//! There is exactly one encoding for a given value, no alignment, no
//! padding and no platform dependence, so `encode(x)` is a stable
//! fingerprint of `x`: equal values encode to equal bytes on every
//! host, which is what the checkpoint determinism tests pin.
//!
//! ## Versioning
//!
//! Everything that outlives the process that wrote it travels inside
//! a [`SummaryEnvelope`] `{ version, seed, payload }`. The version is
//! this crate's [`PROTOCOL_VERSION`]; [`SummaryEnvelope::open`]
//! rejects a mismatch with the typed
//! [`WireError::VersionMismatch`] *before* touching the payload.
//! Policy: **any** change to the encoding of a stored type — field
//! added/removed/reordered, width changed, variant
//! added anywhere but the end — must bump [`PROTOCOL_VERSION`].
//! There is no negotiation: a mismatch means a file written by a
//! different build, and the right response is to fail loudly.
//!
//! ## Framing
//!
//! The journal file delimits records as length-prefixed frames: a
//! `u32` little-endian byte length followed by the encoded bytes.
//! Reading distinguishes a clean end-of-stream from a truncated
//! frame.
//!
//! ## Journalling
//!
//! [`JournalWriter`]/[`JournalReader`] reuse the same envelope +
//! framing as an **append-only write-ahead log**: every record is a
//! framed [`SummaryEnvelope`] (version-gated, seed-tagged), appended
//! and flushed before the state change it describes is applied.
//! A crash mid-append leaves a *torn tail* — a truncated final frame —
//! which the reader reports as a clean end of the intact prefix
//! ([`JournalReader::torn_tail`]) together with the byte offset of
//! that prefix ([`JournalReader::consumed`]), so a restarting service
//! can truncate the file and resume appending.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// Version of the wire format. Bump on **any** encoding change of a
/// type that is journalled, checkpointed or stored in a `.scn` file
/// (see the crate docs for the policy).
///
/// History: v1 = the original cluster job/report protocol (worker
/// processes, since removed); v2 = the report's
/// sampled series carries `Option<f64>` per sample (empty cohorts are
/// no longer conflated with a true zero mean) and the serve layer's
/// journal records joined the boundary-crossing set; v3 = the engine
/// shard-count and fan-out fields left the simulation config (worker
/// jobs, `.scn` files) and the engine checkpoint state; v4 = the
/// engine checkpoint state no longer stores the member registry
/// (membership is derived from the subjects); v5 = the checkpoint's
/// pairwise interaction-count list is gone, each credibility book row
/// carries its count instead; v6 = the engine checkpoint's ring,
/// re-home counters and replica hosts left the arena state for one
/// optional overlay state, present only with the crash model.
pub const PROTOCOL_VERSION: u32 = 6;

/// The file-magic prefix of an engine checkpoint written by the serve
/// layer (see [`encode_checkpoint`]): distinguishes a checkpoint from
/// arbitrary wire bytes before any decoding happens, so a corrupt or
/// misrouted file fails with a typed error instead of a garbage
/// decode.
pub(crate) const CHECKPOINT_MAGIC: [u8; 4] = *b"RLCK";

/// Typed encode/decode failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was fully decoded.
    Eof,
    /// The input did not start with the expected file magic (e.g. a
    /// checkpoint path pointing at something that is not a
    /// checkpoint).
    BadMagic,
    /// Decoding finished with this many input bytes left over.
    TrailingBytes(usize),
    /// A `bool` byte was neither 0 nor 1.
    InvalidBool(u8),
    /// An `Option` tag byte was neither 0 nor 1.
    InvalidOptionTag(u8),
    /// A string's bytes were not valid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeded the platform's `usize`.
    LengthOverflow(u64),
    /// The envelope's protocol version does not match this build.
    VersionMismatch {
        /// The version this build speaks ([`PROTOCOL_VERSION`]).
        expected: u32,
        /// The version found in the envelope.
        found: u32,
    },
    /// Any other serde-reported failure (unknown enum variant, …).
    Message(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of input"),
            WireError::BadMagic => write!(f, "input does not start with the expected file magic"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the value"),
            WireError::InvalidBool(b) => write!(f, "invalid bool byte {b:#04x}"),
            WireError::InvalidOptionTag(b) => write!(f, "invalid option tag {b:#04x}"),
            WireError::InvalidUtf8 => write!(f, "string bytes are not valid UTF-8"),
            WireError::LengthOverflow(n) => write!(f, "length prefix {n} exceeds usize"),
            WireError::VersionMismatch { expected, found } => write!(
                f,
                "wire protocol version mismatch: this build speaks v{expected}, peer sent v{found}"
            ),
            WireError::Message(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl serde::ser::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Message(msg.to_string())
    }
}

impl serde::de::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Message(msg.to_string())
    }
}

/// Encodes a value to its canonical byte string.
pub fn to_bytes<T: ?Sized + Serialize>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut encoder = Encoder { out: Vec::new() };
    value.serialize(&mut encoder)?;
    Ok(encoder.out)
}

/// Decodes a value from `bytes`, requiring every byte to be consumed.
pub fn from_bytes<'de, T: Deserialize<'de>>(bytes: &'de [u8]) -> Result<T, WireError> {
    let mut decoder = Decoder {
        input: bytes,
        pos: 0,
    };
    let value = T::deserialize(&mut decoder)?;
    let rest = bytes.len() - decoder.pos;
    if rest != 0 {
        return Err(WireError::TrailingBytes(rest));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// The streaming encoder behind [`to_bytes`].
struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }
}

macro_rules! encode_le {
    ($($method:ident: $ty:ty),* $(,)?) => {$(
        fn $method(self, v: $ty) -> Result<(), WireError> {
            self.put(&v.to_le_bytes());
            Ok(())
        }
    )*};
}

impl serde::Serializer for &mut Encoder {
    type Ok = ();
    type Error = WireError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    encode_le! {
        serialize_i8: i8, serialize_i16: i16, serialize_i32: i32, serialize_i64: i64,
        serialize_u8: u8, serialize_u16: u16, serialize_u32: u32, serialize_u64: u64,
    }

    fn serialize_bool(self, v: bool) -> Result<(), WireError> {
        self.put(&[v as u8]);
        Ok(())
    }

    fn serialize_f32(self, v: f32) -> Result<(), WireError> {
        self.put(&v.to_bits().to_le_bytes());
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<(), WireError> {
        self.put(&v.to_bits().to_le_bytes());
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<(), WireError> {
        self.put(&(v.len() as u64).to_le_bytes());
        self.put(v.as_bytes());
        Ok(())
    }

    fn serialize_none(self) -> Result<(), WireError> {
        self.put(&[0]);
        Ok(())
    }

    fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<(), WireError> {
        self.put(&[1]);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), WireError> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), WireError> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), WireError> {
        self.put(&variant_index.to_le_bytes());
        Ok(())
    }

    fn serialize_newtype_struct<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        self.put(&variant_index.to_le_bytes());
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Self, WireError> {
        let len = len.ok_or_else(|| {
            <WireError as serde::ser::Error>::custom("sequences must know their length")
        })?;
        self.put(&(len as u64).to_le_bytes());
        Ok(self)
    }

    fn serialize_tuple(self, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }

    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, WireError> {
        self.put(&variant_index.to_le_bytes());
        Ok(self)
    }

    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, WireError> {
        self.put(&variant_index.to_le_bytes());
        Ok(self)
    }
}

impl serde::ser::SerializeSeq for &mut Encoder {
    type Ok = ();
    type Error = WireError;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl serde::ser::SerializeTuple for &mut Encoder {
    type Ok = ();
    type Error = WireError;
    fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl serde::ser::SerializeTupleStruct for &mut Encoder {
    type Ok = ();
    type Error = WireError;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl serde::ser::SerializeTupleVariant for &mut Encoder {
    type Ok = ();
    type Error = WireError;
    fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl serde::ser::SerializeStruct for &mut Encoder {
    type Ok = ();
    type Error = WireError;
    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl serde::ser::SerializeStructVariant for &mut Encoder {
    type Ok = ();
    type Error = WireError;
    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// The streaming decoder behind [`from_bytes`].
struct Decoder<'de> {
    input: &'de [u8],
    pos: usize,
}

impl<'de> Decoder<'de> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'de [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Eof)?;
        if end > self.input.len() {
            return Err(WireError::Eof);
        }
        let bytes = &self.input[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    fn take_len(&mut self) -> Result<usize, WireError> {
        let raw = u64::from_le_bytes(self.take_array::<8>()?);
        usize::try_from(raw).map_err(|_| WireError::LengthOverflow(raw))
    }
}

macro_rules! decode_le {
    ($($method:ident: $ty:ty => $visit:ident / $n:literal),* $(,)?) => {$(
        fn $method<V: serde::de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
            let v = <$ty>::from_le_bytes(self.take_array::<$n>()?);
            visitor.$visit(v)
        }
    )*};
}

impl<'de> serde::Deserializer<'de> for &mut Decoder<'de> {
    type Error = WireError;

    decode_le! {
        deserialize_i8: i8 => visit_i8 / 1,
        deserialize_i16: i16 => visit_i16 / 2,
        deserialize_i32: i32 => visit_i32 / 4,
        deserialize_i64: i64 => visit_i64 / 8,
        deserialize_u8: u8 => visit_u8 / 1,
        deserialize_u16: u16 => visit_u16 / 2,
        deserialize_u32: u32 => visit_u32 / 4,
        deserialize_u64: u64 => visit_u64 / 8,
    }

    fn deserialize_bool<V: serde::de::Visitor<'de>>(
        self,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        match self.take_array::<1>()?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            other => Err(WireError::InvalidBool(other)),
        }
    }

    fn deserialize_f32<V: serde::de::Visitor<'de>>(
        self,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        let bits = u32::from_le_bytes(self.take_array::<4>()?);
        visitor.visit_f32(f32::from_bits(bits))
    }

    fn deserialize_f64<V: serde::de::Visitor<'de>>(
        self,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        let bits = u64::from_le_bytes(self.take_array::<8>()?);
        visitor.visit_f64(f64::from_bits(bits))
    }

    fn deserialize_str<V: serde::de::Visitor<'de>>(
        self,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        let s = std::str::from_utf8(bytes).map_err(|_| WireError::InvalidUtf8)?;
        visitor.visit_str(s)
    }

    fn deserialize_string<V: serde::de::Visitor<'de>>(
        self,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_option<V: serde::de::Visitor<'de>>(
        self,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        match self.take_array::<1>()?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            other => Err(WireError::InvalidOptionTag(other)),
        }
    }

    fn deserialize_unit<V: serde::de::Visitor<'de>>(
        self,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: serde::de::Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: serde::de::Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: serde::de::Visitor<'de>>(
        self,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        let len = self.take_len()?;
        visitor.visit_seq(CountedAccess {
            decoder: self,
            left: len,
        })
    }

    fn deserialize_tuple<V: serde::de::Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(CountedAccess {
            decoder: self,
            left: len,
        })
    }

    fn deserialize_tuple_struct<V: serde::de::Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(CountedAccess {
            decoder: self,
            left: len,
        })
    }

    fn deserialize_struct<V: serde::de::Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(CountedAccess {
            decoder: self,
            left: fields.len(),
        })
    }

    fn deserialize_enum<V: serde::de::Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_enum(VariantDecoder { decoder: self })
    }
}

/// Sequence access bounded by an element count (explicit for `Vec`s,
/// structural for structs and tuples).
struct CountedAccess<'a, 'de> {
    decoder: &'a mut Decoder<'de>,
    left: usize,
}

impl<'de> serde::de::SeqAccess<'de> for CountedAccess<'_, 'de> {
    type Error = WireError;
    fn next_element_seed<T: serde::de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, WireError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.decoder).map(Some)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

/// Enum access: the `u32` variant index, then the content.
struct VariantDecoder<'a, 'de> {
    decoder: &'a mut Decoder<'de>,
}

impl<'de> serde::de::EnumAccess<'de> for VariantDecoder<'_, 'de> {
    type Error = WireError;
    type Variant = Self;
    fn variant_seed<V: serde::de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), WireError> {
        let index = seed.deserialize(&mut *self.decoder)?;
        Ok((index, self))
    }
}

impl<'de> serde::de::VariantAccess<'de> for VariantDecoder<'_, 'de> {
    type Error = WireError;
    fn unit_variant(self) -> Result<(), WireError> {
        Ok(())
    }
    fn newtype_variant_seed<T: serde::de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, WireError> {
        seed.deserialize(self.decoder)
    }
    fn tuple_variant<V: serde::de::Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(CountedAccess {
            decoder: self.decoder,
            left: len,
        })
    }
    fn struct_variant<V: serde::de::Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(CountedAccess {
            decoder: self.decoder,
            left: fields.len(),
        })
    }
}

// ---------------------------------------------------------------------------
// Versioned envelope
// ---------------------------------------------------------------------------

/// The versioned wrapper every journal record, checkpoint and `.scn`
/// payload is stored in.
///
/// `seed` identifies the run the payload belongs to (the service or
/// scenario seed), letting a reader reject a record written for a
/// different run; `version` gates decoding entirely — see the crate
/// docs for the bump policy.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SummaryEnvelope {
    /// Protocol version of the sender ([`PROTOCOL_VERSION`]).
    pub version: u32,
    /// Base seed of the run this payload belongs to.
    pub seed: u64,
    /// The encoded message ([`to_bytes`] of the payload type).
    pub payload: Vec<u8>,
}

impl SummaryEnvelope {
    /// Wraps an encodable payload under the current
    /// [`PROTOCOL_VERSION`].
    pub fn wrap<T: ?Sized + Serialize>(seed: u64, payload: &T) -> Result<Self, WireError> {
        Ok(SummaryEnvelope {
            version: PROTOCOL_VERSION,
            seed,
            payload: to_bytes(payload)?,
        })
    }

    /// Decodes an envelope from bytes and checks its version against
    /// this build, **before** any payload bytes are interpreted.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let envelope: SummaryEnvelope = from_bytes(bytes)?;
        if envelope.version != PROTOCOL_VERSION {
            return Err(WireError::VersionMismatch {
                expected: PROTOCOL_VERSION,
                found: envelope.version,
            });
        }
        Ok(envelope)
    }

    /// Encodes the envelope itself to bytes.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        to_bytes(self)
    }

    /// Decodes the payload (the version was already checked by
    /// [`SummaryEnvelope::decode`]; `open` re-checks for envelopes
    /// built by hand).
    pub fn open<T: serde::de::DeserializeOwned>(&self) -> Result<T, WireError> {
        if self.version != PROTOCOL_VERSION {
            return Err(WireError::VersionMismatch {
                expected: PROTOCOL_VERSION,
                found: self.version,
            });
        }
        from_bytes(&self.payload)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint files
// ---------------------------------------------------------------------------

/// Encodes an engine checkpoint for writing to disk:
/// `CHECKPOINT_MAGIC` followed by a version-gated
/// [`SummaryEnvelope`] tagged with the service seed. Generic over the
/// payload type so this crate keeps its serde-only dependency set: the
/// concrete checkpoint state lives in the serve layer.
pub fn encode_checkpoint<T: ?Sized + Serialize>(
    seed: u64,
    state: &T,
) -> Result<Vec<u8>, WireError> {
    let envelope = SummaryEnvelope::wrap(seed, state)?.encode()?;
    let mut out = Vec::with_capacity(CHECKPOINT_MAGIC.len() + envelope.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&envelope);
    Ok(out)
}

/// Decodes a checkpoint file produced by [`encode_checkpoint`],
/// checking the magic first and the protocol version second, before
/// any payload bytes are interpreted. Returns the service seed with
/// the decoded state. A torn file (crash mid-write before the atomic
/// rename) surfaces as [`WireError::Eof`] from the envelope decode —
/// never as half-interpreted state.
pub fn decode_checkpoint<T: serde::de::DeserializeOwned>(
    bytes: &[u8],
) -> Result<(u64, T), WireError> {
    let rest = bytes
        .strip_prefix(&CHECKPOINT_MAGIC[..])
        .ok_or(WireError::BadMagic)?;
    let envelope = SummaryEnvelope::decode(rest)?;
    Ok((envelope.seed, envelope.open()?))
}

// ---------------------------------------------------------------------------
// Stream framing
// ---------------------------------------------------------------------------

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean
/// end-of-stream (EOF exactly at a frame boundary); a mid-frame EOF
/// is an `UnexpectedEof` error. The length prefix is untrusted input,
/// so the payload buffer grows with the bytes actually read instead
/// of being allocated up front: a corrupt header claiming 4 GiB costs
/// only the bytes that follow it.
pub(crate) fn read_frame<R: Read>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match reader.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u64::from(u32::from_le_bytes(len_bytes));
    let mut payload = Vec::new();
    reader.by_ref().take(len).read_to_end(&mut payload)?;
    if (payload.len() as u64) < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ended inside a frame payload",
        ));
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Write-ahead journal framing
// ---------------------------------------------------------------------------

/// A journal failure: the transport, the encoding, a record that
/// belongs to a different log, or a writer stopped by an earlier
/// write failure.
#[derive(Debug)]
pub enum JournalError {
    /// Reading or writing the underlying stream failed.
    Io(io::Error),
    /// A record failed to encode/decode — including the version gate
    /// ([`WireError::VersionMismatch`]: the log was written by a
    /// different protocol build and must not be half-interpreted).
    Wire(WireError),
    /// An intact record carried the wrong seed: the file is a journal,
    /// but not *this* service's journal.
    SeedMismatch {
        /// The seed the reader was opened with.
        expected: u64,
        /// The seed found in the record's envelope.
        found: u64,
    },
    /// An earlier write to the stream failed, so the writer refuses
    /// every later append and sync: the stream may end in a partial
    /// frame, and writing past it would corrupt the log. Reopening
    /// the journal recovers its intact prefix.
    Stopped,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Wire(e) => write!(f, "journal encoding error: {e}"),
            JournalError::SeedMismatch { expected, found } => write!(
                f,
                "journal seed mismatch: this service uses seed {expected}, record carries {found}"
            ),
            JournalError::Stopped => write!(
                f,
                "journal writer stopped after an earlier write failure; reopen the journal"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<WireError> for JournalError {
    fn from(e: WireError) -> Self {
        JournalError::Wire(e)
    }
}

/// When a [`JournalWriter`] pushes buffered record frames to the
/// underlying stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Flush after every appended record — the strict write-ahead
    /// contract: when `append` returns `Ok`, the record is in the
    /// OS's hands before the mutation is applied.
    Always,
    /// Group commit: buffer encoded frames in memory and flush once
    /// every `N` appends. Relaxes durability — up to `N - 1` applied
    /// records can be lost on a crash — but never ordering: the
    /// stream carries the exact same bytes in the exact same order,
    /// so replay state is unchanged and a torn tail can only start at
    /// a flushed-batch boundary. `Batch(0)` and `Batch(1)` behave
    /// like [`SyncPolicy::Always`].
    Batch(usize),
}

impl SyncPolicy {
    /// Appends between forced flushes (≥ 1).
    fn every(self) -> usize {
        match self {
            SyncPolicy::Always => 1,
            SyncPolicy::Batch(n) => n.max(1),
        }
    }
}

/// Appends records to a write-ahead journal: each record is one
/// framed, version-gated [`SummaryEnvelope`] tagged with the log's
/// seed. Under [`SyncPolicy::Always`] (the default), every
/// [`JournalWriter::append`] flushes before returning; under
/// [`SyncPolicy::Batch`], frames accumulate in an in-memory tail and
/// hit the stream in groups — byte-identical content either way.
/// Dropping the writer flushes the tail best-effort; call
/// [`JournalWriter::sync`] to observe the result.
///
/// The writer is fail-stop: once a write or flush of the stream
/// fails, every later [`JournalWriter::append`] and
/// [`JournalWriter::sync`] returns [`JournalError::Stopped`] and
/// `Drop` writes nothing. The stream then ends in whole frames,
/// possibly followed by one torn frame, which [`JournalReader`] stops
/// at cleanly. Under [`SyncPolicy::Batch`] the records of the failed
/// group are lost, as in a crash.
#[derive(Debug)]
pub struct JournalWriter<W: Write> {
    inner: W,
    seed: u64,
    /// Encoded-but-unflushed frames, in append order.
    tail: Vec<u8>,
    /// Records currently buffered in `tail`.
    pending: usize,
    every: usize,
    /// Set when a write or flush failed; the writer is then stopped.
    failed: bool,
}

impl<W: Write> JournalWriter<W> {
    /// A writer appending records tagged with `seed` to `inner`
    /// (typically a file opened in append mode) under `policy`.
    pub fn with_policy(inner: W, seed: u64, policy: SyncPolicy) -> Self {
        JournalWriter {
            inner,
            seed,
            tail: Vec::new(),
            pending: 0,
            every: policy.every(),
            failed: false,
        }
    }

    /// Appends one record; flushes when the policy's batch is full.
    pub fn append<T: ?Sized + Serialize>(&mut self, record: &T) -> Result<(), JournalError> {
        if self.failed {
            return Err(JournalError::Stopped);
        }
        let envelope = SummaryEnvelope::wrap(self.seed, record)?;
        let bytes = envelope.encode()?;
        let len = u32::try_from(bytes.len()).map_err(|_| {
            JournalError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame exceeds 4 GiB",
            ))
        })?;
        self.tail.extend_from_slice(&len.to_le_bytes());
        self.tail.extend_from_slice(&bytes);
        self.pending += 1;
        if self.pending >= self.every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces the buffered tail onto the stream and flushes. A no-op
    /// under [`SyncPolicy::Always`] outside `append` (the tail is
    /// always empty there). A failed write or flush stops the writer.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if self.failed {
            return Err(JournalError::Stopped);
        }
        // Part of the tail may have reached the stream before an
        // error, so it can never be written again: stop instead.
        let written = if self.tail.is_empty() {
            Ok(())
        } else {
            self.inner.write_all(&self.tail)
        };
        self.tail.clear();
        self.pending = 0;
        if let Err(e) = written.and_then(|()| self.inner.flush()) {
            self.failed = true;
            return Err(JournalError::Io(e));
        }
        Ok(())
    }

    /// Retags subsequently appended records with `seed`. Used by
    /// journal compaction: after a checkpoint is durable the log is
    /// truncated and restarted under a new generation-salted seed, so
    /// a stale pre-truncation journal (crash between checkpoint
    /// rename and truncate) is rejected by the seed gate on replay
    /// instead of being replayed on top of the checkpoint. Frames
    /// already buffered in the tail keep the seed they were encoded
    /// with — callers must [`JournalWriter::sync`] first.
    pub fn set_seed(&mut self, seed: u64) {
        debug_assert_eq!(self.pending, 0, "re-seeding with buffered records");
        self.seed = seed;
    }

    /// The underlying stream, for callers that need to sync or close.
    /// Call [`JournalWriter::sync`] first if buffered records must
    /// reach the stream before you touch it.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

impl<W: Write> Drop for JournalWriter<W> {
    fn drop(&mut self) {
        // Best-effort: a clean shutdown should not lose the buffered
        // tail just because the policy batched. Errors are invisible
        // here — callers that care must `sync()` explicitly. A
        // stopped writer writes nothing.
        let _ = self.sync();
    }
}

/// Reads a write-ahead journal back, record by record, verifying the
/// protocol version and seed of every envelope.
///
/// A truncated final frame (the signature of a crash mid-append) ends
/// the iteration cleanly instead of erroring: [`JournalReader::next`]
/// returns `Ok(None)`, [`JournalReader::torn_tail`] reports that the
/// tail was torn, and [`JournalReader::consumed`] is the byte length
/// of the intact prefix — truncate the file there before appending.
/// A *full-length* frame that fails to decode is corruption, not a
/// torn tail, and stays a hard error.
#[derive(Debug)]
pub struct JournalReader<R: Read> {
    inner: R,
    seed: u64,
    consumed: u64,
    torn: bool,
}

impl<R: Read> JournalReader<R> {
    /// A reader over `inner` expecting records tagged with `seed`.
    pub fn new(inner: R, seed: u64) -> Self {
        JournalReader {
            inner,
            seed,
            consumed: 0,
            torn: false,
        }
    }

    /// The next intact record, or `Ok(None)` at the end of the intact
    /// prefix (clean EOF *or* torn tail — distinguish via
    /// [`JournalReader::torn_tail`]).
    ///
    /// Not `Iterator::next`: the record type is chosen per call and
    /// the fallible `Result<Option<_>>` shape is the point.
    #[allow(clippy::should_implement_trait)]
    pub fn next<T: serde::de::DeserializeOwned>(&mut self) -> Result<Option<T>, JournalError> {
        if self.torn {
            return Ok(None);
        }
        let frame = match read_frame(&mut self.inner) {
            Ok(None) => return Ok(None),
            Ok(Some(frame)) => frame,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                self.torn = true;
                return Ok(None);
            }
            Err(e) => return Err(JournalError::Io(e)),
        };
        let envelope = SummaryEnvelope::decode(&frame)?;
        if envelope.seed != self.seed {
            return Err(JournalError::SeedMismatch {
                expected: self.seed,
                found: envelope.seed,
            });
        }
        let record = envelope.open()?;
        self.consumed += 4 + frame.len() as u64;
        Ok(Some(record))
    }

    /// Bytes of intact records read so far (frame headers included) —
    /// the length to truncate a torn journal to.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// True when iteration stopped at a truncated final frame rather
    /// than a clean end-of-stream.
    pub fn torn_tail(&self) -> bool {
        self.torn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::de::DeserializeOwned;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Writes one length-prefixed frame (`u32` LE byte count + bytes).
    fn write_frame(writer: &mut Vec<u8>, bytes: &[u8]) {
        writer.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        writer.extend_from_slice(bytes);
    }

    fn round_trip<T>(value: &T) -> T
    where
        T: Serialize + DeserializeOwned,
    {
        from_bytes(&to_bytes(value).expect("encode")).expect("decode")
    }

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct Record {
        id: u64,
        score: f64,
        tags: Vec<u32>,
        label: Option<String>,
        flag: bool,
    }

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Unit,
        New(u64),
        Pair(u32, f64),
        Named { x: f64, y: Option<u64> },
    }

    #[test]
    fn primitives_round_trip_bit_exact() {
        assert!(round_trip(&true));
        assert_eq!(round_trip(&0xAB_u8), 0xAB);
        assert_eq!(round_trip(&-12345_i64), -12345);
        assert_eq!(round_trip(&u64::MAX), u64::MAX);
        assert_eq!(round_trip(&usize::MAX), usize::MAX);
        for f in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(round_trip(&f).to_bits(), f.to_bits(), "{f}");
        }
        assert_eq!(round_trip(&"héllo".to_string()), "héllo");
    }

    #[test]
    fn known_byte_layout() {
        // u64 is 8 bytes little-endian.
        assert_eq!(to_bytes(&1u64).unwrap(), vec![1, 0, 0, 0, 0, 0, 0, 0]);
        // Vec carries a u64 length prefix.
        assert_eq!(
            to_bytes(&vec![1u8, 2]).unwrap(),
            vec![2, 0, 0, 0, 0, 0, 0, 0, 1, 2]
        );
        // Option is a single tag byte.
        assert_eq!(to_bytes(&Option::<u8>::None).unwrap(), vec![0]);
        assert_eq!(to_bytes(&Some(7u8)).unwrap(), vec![1, 7]);
        // Unit enum variants are their u32 index.
        assert_eq!(to_bytes(&Shape::Unit).unwrap(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn structs_and_enums_round_trip() {
        let r = Record {
            id: 42,
            score: -0.125,
            tags: vec![1, 2, 3],
            label: Some("x".into()),
            flag: false,
        };
        assert_eq!(round_trip(&r), r);
        for s in [
            Shape::Unit,
            Shape::New(9),
            Shape::Pair(3, 0.5),
            Shape::Named { x: 1.0, y: None },
            Shape::Named {
                x: -1.0,
                y: Some(8),
            },
        ] {
            assert_eq!(round_trip(&s), s);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let r = Record {
            id: 7,
            score: 0.75,
            tags: vec![9, 9, 9],
            label: None,
            flag: true,
        };
        assert_eq!(to_bytes(&r).unwrap(), to_bytes(&r.clone()).unwrap());
    }

    #[test]
    fn decode_errors_are_typed() {
        assert_eq!(from_bytes::<u64>(&[1, 2, 3]), Err(WireError::Eof));
        assert_eq!(from_bytes::<u8>(&[1, 2]), Err(WireError::TrailingBytes(1)));
        assert_eq!(from_bytes::<bool>(&[2]), Err(WireError::InvalidBool(2)));
        assert_eq!(
            from_bytes::<Option<u8>>(&[9, 0]),
            Err(WireError::InvalidOptionTag(9))
        );
        // Variant index beyond the enum's variants.
        let err = from_bytes::<Shape>(&99u32.to_le_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Message(_)), "{err:?}");
    }

    #[test]
    fn envelope_round_trips_and_rejects_bumped_version() {
        let payload = Record {
            id: 1,
            score: 0.5,
            tags: vec![],
            label: None,
            flag: true,
        };
        let envelope = SummaryEnvelope::wrap(77, &payload).unwrap();
        assert_eq!(envelope.version, PROTOCOL_VERSION);
        let bytes = envelope.encode().unwrap();
        let decoded = SummaryEnvelope::decode(&bytes).unwrap();
        assert_eq!(decoded.seed, 77);
        assert_eq!(decoded.open::<Record>().unwrap(), payload);

        // A peer speaking a newer protocol is rejected before its
        // payload is interpreted.
        let mut stale = envelope.clone();
        stale.version = PROTOCOL_VERSION + 1;
        let bytes = stale.encode().unwrap();
        assert_eq!(
            SummaryEnvelope::decode(&bytes),
            Err(WireError::VersionMismatch {
                expected: PROTOCOL_VERSION,
                found: PROTOCOL_VERSION + 1,
            })
        );
        assert!(matches!(
            stale.open::<Record>(),
            Err(WireError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn checkpoint_files_round_trip_and_gate_magic_and_version() {
        let payload = Record {
            id: 3,
            score: 0.875,
            tags: vec![1, 2],
            label: None,
            flag: true,
        };
        let bytes = encode_checkpoint(42, &payload).unwrap();
        assert_eq!(&bytes[..4], b"RLCK");
        let (seed, decoded) = decode_checkpoint::<Record>(&bytes).unwrap();
        assert_eq!(seed, 42);
        assert_eq!(decoded, payload);

        // Not a checkpoint file at all.
        assert_eq!(
            decode_checkpoint::<Record>(
                &SummaryEnvelope::wrap(42, &payload)
                    .unwrap()
                    .encode()
                    .unwrap()
            )
            .unwrap_err(),
            WireError::BadMagic
        );
        assert_eq!(
            decode_checkpoint::<Record>(b"RL").unwrap_err(),
            WireError::BadMagic
        );

        // A torn file — crash mid-write — fails the envelope decode
        // with a typed error instead of yielding partial state.
        for cut in [4usize, 6, bytes.len() - 1] {
            assert!(
                matches!(
                    decode_checkpoint::<Record>(&bytes[..cut]),
                    Err(WireError::Eof) | Err(WireError::TrailingBytes(_))
                ),
                "cut at {cut}"
            );
        }

        // Right magic, wrong protocol version: rejected before the
        // payload decodes.
        let mut stale = SummaryEnvelope::wrap(42, &payload).unwrap();
        stale.version += 1;
        let mut file = CHECKPOINT_MAGIC.to_vec();
        file.extend_from_slice(&stale.encode().unwrap());
        assert!(matches!(
            decode_checkpoint::<Record>(&file),
            Err(WireError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn framing_round_trips_and_detects_truncation() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"alpha");
        write_frame(&mut stream, b"");
        write_frame(&mut stream, b"omega");

        let mut reader = stream.as_slice();
        assert_eq!(
            read_frame(&mut reader).unwrap().as_deref(),
            Some(&b"alpha"[..])
        );
        assert_eq!(read_frame(&mut reader).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(
            read_frame(&mut reader).unwrap().as_deref(),
            Some(&b"omega"[..])
        );
        assert_eq!(read_frame(&mut reader).unwrap(), None, "clean EOF");

        // Truncated payload.
        let mut truncated = &stream[..6];
        let err = read_frame(&mut truncated).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Truncated header.
        let mut truncated = &stream[..2];
        let err = read_frame(&mut truncated).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A reader that records the widest buffer it was asked to fill.
    struct Probe<'a> {
        bytes: &'a [u8],
        widest: usize,
    }

    impl Read for Probe<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            self.bytes.read(buf)
        }
    }

    #[test]
    fn corrupt_length_prefix_fails_without_allocating_its_claim() {
        // A header claiming u32::MAX bytes followed by only three: the
        // read fails as a short payload, and no buffer anywhere near
        // the claimed 4 GiB is ever handed to the reader.
        let mut stream = u32::MAX.to_le_bytes().to_vec();
        stream.extend_from_slice(b"abc");
        let mut probe = Probe {
            bytes: &stream,
            widest: 0,
        };
        let err = read_frame(&mut probe).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            probe.widest < 1 << 20,
            "read_frame sized a {}-byte buffer from the untrusted header",
            probe.widest
        );
    }

    #[test]
    fn journal_round_trips_records_in_order() {
        let mut log = Vec::new();
        {
            let mut writer = JournalWriter::with_policy(&mut log, 9, SyncPolicy::Always);
            for i in 0..5u64 {
                writer
                    .append(&Record {
                        id: i,
                        score: i as f64 * 0.25,
                        tags: vec![i as u32],
                        label: None,
                        flag: i % 2 == 0,
                    })
                    .unwrap();
            }
        }
        let mut reader = JournalReader::new(log.as_slice(), 9);
        let mut ids = Vec::new();
        while let Some(r) = reader.next::<Record>().unwrap() {
            ids.push(r.id);
        }
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(!reader.torn_tail());
        assert_eq!(reader.consumed(), log.len() as u64);
    }

    #[test]
    fn group_commit_buffers_until_the_batch_boundary() {
        let mut log = Vec::new();
        {
            let mut writer = JournalWriter::with_policy(&mut log, 9, SyncPolicy::Batch(3));
            writer.append(&1u64).unwrap();
            writer.append(&2u64).unwrap();
            assert_eq!(writer.pending, 2);
            assert!(writer.get_mut().is_empty(), "nothing flushed mid-batch");
            writer.append(&3u64).unwrap();
            assert_eq!(writer.pending, 0, "third append completed the batch");
            assert!(!writer.get_mut().is_empty());
            let flushed = writer.get_mut().len();
            writer.append(&4u64).unwrap();
            assert_eq!(
                writer.get_mut().len(),
                flushed,
                "fourth append buffers again"
            );
            // Drop flushes the partial batch best-effort.
        }
        let mut reader = JournalReader::new(log.as_slice(), 9);
        let mut seen = Vec::new();
        while let Some(r) = reader.next::<u64>().unwrap() {
            seen.push(r);
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert!(!reader.torn_tail());
    }

    #[test]
    fn sync_policies_produce_byte_identical_logs() {
        // The reference stream: one hand-framed envelope per record,
        // exactly what the pre-group-commit writer produced.
        let records: Vec<u64> = (0..10).collect();
        let mut reference = Vec::new();
        for r in &records {
            let envelope = SummaryEnvelope::wrap(5, r).unwrap();
            write_frame(&mut reference, &envelope.encode().unwrap());
        }
        for policy in [
            SyncPolicy::Always,
            SyncPolicy::Batch(1),
            SyncPolicy::Batch(3),
            SyncPolicy::Batch(64),
        ] {
            let mut log = Vec::new();
            {
                let mut writer = JournalWriter::with_policy(&mut log, 5, policy);
                for r in &records {
                    writer.append(r).unwrap();
                }
                writer.sync().unwrap();
            }
            assert_eq!(log, reference, "{policy:?} changed the bytes on disk");
        }
    }

    /// A sink that accepts `budget` bytes, fails one write, then
    /// accepts everything again: a transient write error (a full
    /// disk that is later cleared) after a partial write.
    struct FailOnceAfter {
        sink: Rc<RefCell<Vec<u8>>>,
        budget: usize,
        failed: bool,
    }

    impl Write for FailOnceAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !self.failed && self.budget == 0 {
                self.failed = true;
                return Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"));
            }
            let n = if self.failed {
                buf.len()
            } else {
                buf.len().min(self.budget)
            };
            self.budget -= n.min(self.budget);
            self.sink.borrow_mut().extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_stops_after_a_failed_write() {
        let records: Vec<u64> = (0..6).collect();
        let mut reference = Vec::new();
        for r in &records {
            let envelope = SummaryEnvelope::wrap(3, r).unwrap();
            write_frame(&mut reference, &envelope.encode().unwrap());
        }
        let frame = reference.len() / records.len();
        for policy in [SyncPolicy::Always, SyncPolicy::Batch(2)] {
            for budget in [frame + 3, 2 * frame, 2 * frame + frame / 2] {
                let sink = Rc::new(RefCell::new(Vec::new()));
                let mut results = Vec::new();
                let after_stop;
                {
                    let inner = FailOnceAfter {
                        sink: Rc::clone(&sink),
                        budget,
                        failed: false,
                    };
                    let mut writer = JournalWriter::with_policy(inner, 3, policy);
                    for r in &records {
                        results.push(writer.append(r));
                    }
                    after_stop = writer.sync();
                    // Dropping a stopped writer must write nothing.
                }
                let log = sink.borrow();
                let case = format!("{policy:?}, failure after {budget} bytes");
                // The stream holds whole frames of the reference log,
                // then at most one torn frame: never a frame written
                // again after a partial copy of itself.
                assert!(
                    reference.starts_with(&log),
                    "{case}: the stream is not a prefix of the appended frames"
                );
                let failed_at = results
                    .iter()
                    .position(|r| matches!(r, Err(JournalError::Io(_))))
                    .unwrap_or_else(|| panic!("{case}: no append saw the write error"));
                assert!(results[..failed_at].iter().all(Result::is_ok), "{case}");
                assert!(
                    results[failed_at + 1..]
                        .iter()
                        .all(|r| matches!(r, Err(JournalError::Stopped))),
                    "{case}: an append after the failure was not refused"
                );
                assert!(matches!(after_stop, Err(JournalError::Stopped)), "{case}");
                let mut reader = JournalReader::new(log.as_slice(), 3);
                let mut seen = Vec::new();
                while let Some(r) = reader.next::<u64>().unwrap() {
                    seen.push(r);
                }
                assert!(records[..failed_at].starts_with(&seen), "{case}");
                if policy == SyncPolicy::Always {
                    assert_eq!(seen, records[..failed_at], "{case}: lost an acked record");
                }
            }
        }
    }

    #[test]
    fn torn_tails_at_every_record_boundary_replay_the_intact_prefix() {
        // A group-committed log, flushed in full; then simulate a
        // crash at every possible boundary (clean cut at a record
        // edge, and a few torn cuts inside the following frame) and
        // require the reader to hand back exactly the intact prefix.
        let records: Vec<u64> = (100..107).collect();
        let mut log = Vec::new();
        let mut boundaries = vec![0u64];
        {
            let mut writer = JournalWriter::with_policy(&mut log, 8, SyncPolicy::Batch(3));
            for r in &records {
                writer.append(r).unwrap();
                writer.sync().unwrap();
                boundaries.push(writer.get_mut().len() as u64);
            }
        }
        for (i, &boundary) in boundaries.iter().enumerate() {
            let next = boundaries.get(i + 1).copied().unwrap_or(boundary);
            // Clean cut at the boundary, then torn cuts within the
            // next frame (header bytes and payload bytes).
            let mut cuts = vec![boundary];
            for torn in [1, 3, 5] {
                if boundary + torn < next {
                    cuts.push(boundary + torn);
                }
            }
            for cut in cuts {
                let truncated = &log[..cut as usize];
                let mut reader = JournalReader::new(truncated, 8);
                let mut seen = Vec::new();
                while let Some(r) = reader.next::<u64>().unwrap() {
                    seen.push(r);
                }
                assert_eq!(seen, records[..i], "cut at {cut} changed the prefix");
                assert_eq!(reader.consumed(), boundary, "cut at {cut}");
                assert_eq!(reader.torn_tail(), cut != boundary, "cut at {cut}");
            }
        }
    }

    #[test]
    fn journal_reader_stops_cleanly_at_a_torn_tail() {
        let mut log = Vec::new();
        {
            let mut writer = JournalWriter::with_policy(&mut log, 4, SyncPolicy::Always);
            writer.append(&1u64).unwrap();
            writer.append(&2u64).unwrap();
        }
        let intact = log.len();
        JournalWriter::with_policy(&mut log, 4, SyncPolicy::Always)
            .append(&3u64)
            .unwrap();
        // Crash mid-append: the last frame is truncated.
        log.truncate(intact + 7);

        let mut reader = JournalReader::new(log.as_slice(), 4);
        assert_eq!(reader.next::<u64>().unwrap(), Some(1));
        assert_eq!(reader.next::<u64>().unwrap(), Some(2));
        assert_eq!(reader.next::<u64>().unwrap(), None, "torn tail ends it");
        assert!(reader.torn_tail());
        assert_eq!(
            reader.consumed(),
            intact as u64,
            "consumed points at the end of the intact prefix"
        );
        // The reader stays ended.
        assert_eq!(reader.next::<u64>().unwrap(), None);
    }

    #[test]
    fn journal_reader_counts_records_and_bytes_in_step() {
        let mut log = Vec::new();
        {
            let mut writer = JournalWriter::with_policy(&mut log, 6, SyncPolicy::Always);
            for i in 0..4u64 {
                writer.append(&i).unwrap();
            }
        }
        let intact = log.len();
        JournalWriter::with_policy(&mut log, 6, SyncPolicy::Always)
            .append(&99u64)
            .unwrap();
        log.truncate(intact + 5); // torn fifth record

        let frame = intact as u64 / 4;
        let mut reader = JournalReader::new(log.as_slice(), 6);
        assert_eq!(reader.consumed(), 0);
        let mut expected = 0u64;
        while let Some(r) = reader.next::<u64>().unwrap() {
            assert_eq!(r, expected);
            expected += 1;
            assert_eq!(reader.consumed(), expected * frame, "one frame per record");
        }
        assert_eq!(expected, 4, "the torn record is not read");
        assert_eq!(reader.consumed(), intact as u64);
        assert!(reader.torn_tail());
    }

    #[test]
    fn re_seeded_writer_starts_a_new_generation() {
        // The compaction shape: records under the old seed, then a
        // truncate + set_seed. The new log replays only under the new
        // seed; a reader still using the old seed hits the typed
        // mismatch (which is exactly how a stale pre-truncation
        // journal is fenced off after a crash).
        let mut log = Vec::new();
        let mut writer = JournalWriter::with_policy(&mut log, 10, SyncPolicy::Always);
        writer.append(&1u64).unwrap();
        writer.get_mut().clear(); // "truncate" the Vec-backed log
        writer.set_seed(11);
        writer.append(&2u64).unwrap();
        drop(writer);

        let mut reader = JournalReader::new(log.as_slice(), 11);
        assert_eq!(reader.next::<u64>().unwrap(), Some(2));
        assert_eq!(reader.next::<u64>().unwrap(), None);
        assert!(!reader.torn_tail());

        let mut stale = JournalReader::new(log.as_slice(), 10);
        assert!(matches!(
            stale.next::<u64>(),
            Err(JournalError::SeedMismatch {
                expected: 10,
                found: 11
            })
        ));
    }

    #[test]
    fn journal_reader_rejects_foreign_and_stale_records() {
        // Wrong seed: a hard error, not a silent skip.
        let mut log = Vec::new();
        JournalWriter::with_policy(&mut log, 1, SyncPolicy::Always)
            .append(&7u64)
            .unwrap();
        let mut reader = JournalReader::new(log.as_slice(), 2);
        assert!(matches!(
            reader.next::<u64>(),
            Err(JournalError::SeedMismatch {
                expected: 2,
                found: 1
            })
        ));

        // Wrong protocol version: gated before the payload decodes.
        let mut envelope = SummaryEnvelope::wrap(3, &7u64).unwrap();
        envelope.version += 1;
        let mut log = Vec::new();
        write_frame(&mut log, &envelope.encode().unwrap());
        let mut reader = JournalReader::new(log.as_slice(), 3);
        assert!(matches!(
            reader.next::<u64>(),
            Err(JournalError::Wire(WireError::VersionMismatch { .. }))
        ));
    }
}

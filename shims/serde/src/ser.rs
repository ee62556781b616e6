//! Serialization half of the serde-1 data-model subset — see the
//! crate docs for the exact coverage.

use std::fmt::Display;

/// Trait implemented by serialization errors (the
/// `serde::ser::Error` contract).
pub trait Error: Sized + std::error::Error {
    /// Builds an error carrying a custom message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A data structure that can be serialized into any format
/// implementing [`Serializer`].
pub trait Serialize {
    /// Serializes `self` into the given serializer.
    fn serialize<S>(&self, serializer: S) -> Result<S::Ok, S::Error>
    where
        S: Serializer;
}

/// A format that can serialize the data-model subset the workspace
/// uses: primitives, strings, byte strings, options, sequences,
/// tuples, structs and enum variants. Maps and `i128`/`u128` are not
/// part of the subset (no call site needs them); a format that does
/// need them belongs on the real crate.
pub trait Serializer: Sized {
    /// Output of a successful serialization.
    type Ok;
    /// Error type of this format.
    type Error: Error;
    /// Sub-serializer for sequences.
    type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// Sub-serializer for tuples.
    type SerializeTuple: SerializeTuple<Ok = Self::Ok, Error = Self::Error>;
    /// Sub-serializer for tuple structs.
    type SerializeTupleStruct: SerializeTupleStruct<Ok = Self::Ok, Error = Self::Error>;
    /// Sub-serializer for tuple enum variants.
    type SerializeTupleVariant: SerializeTupleVariant<Ok = Self::Ok, Error = Self::Error>;
    /// Sub-serializer for structs.
    type SerializeStruct: SerializeStruct<Ok = Self::Ok, Error = Self::Error>;
    /// Sub-serializer for struct enum variants.
    type SerializeStructVariant: SerializeStructVariant<Ok = Self::Ok, Error = Self::Error>;

    /// Serializes a `bool`.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i8`.
    fn serialize_i8(self, v: i8) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i16`.
    fn serialize_i16(self, v: i16) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i32`.
    fn serialize_i32(self, v: i32) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i64`.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `u8`.
    fn serialize_u8(self, v: u8) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `u16`.
    fn serialize_u16(self, v: u16) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `u32`.
    fn serialize_u32(self, v: u32) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `u64`.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `f32`.
    fn serialize_f32(self, v: f32) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `f64`.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a string slice.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// Serializes a byte string as one run (a `Vec<u8>` or `[u8]`
    /// goes through [`Serializer::serialize_seq`] one element at a
    /// time instead; a type opts in by calling this hook).
    fn serialize_bytes(self, v: &[u8]) -> Result<Self::Ok, Self::Error>;
    /// Serializes `Option::None`.
    fn serialize_none(self) -> Result<Self::Ok, Self::Error>;
    /// Serializes `Option::Some(value)`.
    fn serialize_some<T>(self, value: &T) -> Result<Self::Ok, Self::Error>
    where
        T: ?Sized + Serialize;
    /// Serializes `()`.
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    /// Serializes a unit struct like `struct Marker;`.
    fn serialize_unit_struct(self, name: &'static str) -> Result<Self::Ok, Self::Error>;
    /// Serializes a unit enum variant like `E::A`.
    fn serialize_unit_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
    ) -> Result<Self::Ok, Self::Error>;
    /// Serializes a newtype struct like `struct Id(u64);`.
    fn serialize_newtype_struct<T>(
        self,
        name: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error>
    where
        T: ?Sized + Serialize;
    /// Serializes a newtype enum variant like `E::N(v)`.
    fn serialize_newtype_variant<T>(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error>
    where
        T: ?Sized + Serialize;
    /// Begins a variable-length sequence.
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    /// Begins a fixed-length tuple.
    fn serialize_tuple(self, len: usize) -> Result<Self::SerializeTuple, Self::Error>;
    /// Begins a tuple struct like `struct Pair(A, B);`.
    fn serialize_tuple_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleStruct, Self::Error>;
    /// Begins a tuple enum variant like `E::T(a, b)`.
    fn serialize_tuple_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleVariant, Self::Error>;
    /// Begins a struct with named fields.
    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error>;
    /// Begins a struct enum variant like `E::S { .. }`.
    fn serialize_struct_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStructVariant, Self::Error>;
}

/// Sequence sub-serializer returned by [`Serializer::serialize_seq`].
pub trait SerializeSeq {
    /// Output of a successful serialization.
    type Ok;
    /// Error type of this format.
    type Error: Error;
    /// Serializes one element.
    fn serialize_element<T>(&mut self, value: &T) -> Result<(), Self::Error>
    where
        T: ?Sized + Serialize;
    /// Finishes the sequence.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Tuple sub-serializer returned by [`Serializer::serialize_tuple`].
pub trait SerializeTuple {
    /// Output of a successful serialization.
    type Ok;
    /// Error type of this format.
    type Error: Error;
    /// Serializes one element.
    fn serialize_element<T>(&mut self, value: &T) -> Result<(), Self::Error>
    where
        T: ?Sized + Serialize;
    /// Finishes the tuple.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Tuple-struct sub-serializer returned by
/// [`Serializer::serialize_tuple_struct`].
pub trait SerializeTupleStruct {
    /// Output of a successful serialization.
    type Ok;
    /// Error type of this format.
    type Error: Error;
    /// Serializes one field.
    fn serialize_field<T>(&mut self, value: &T) -> Result<(), Self::Error>
    where
        T: ?Sized + Serialize;
    /// Finishes the tuple struct.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Tuple-variant sub-serializer returned by
/// [`Serializer::serialize_tuple_variant`].
pub trait SerializeTupleVariant {
    /// Output of a successful serialization.
    type Ok;
    /// Error type of this format.
    type Error: Error;
    /// Serializes one field.
    fn serialize_field<T>(&mut self, value: &T) -> Result<(), Self::Error>
    where
        T: ?Sized + Serialize;
    /// Finishes the variant.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Struct sub-serializer returned by [`Serializer::serialize_struct`].
pub trait SerializeStruct {
    /// Output of a successful serialization.
    type Ok;
    /// Error type of this format.
    type Error: Error;
    /// Serializes one named field.
    fn serialize_field<T>(&mut self, key: &'static str, value: &T) -> Result<(), Self::Error>
    where
        T: ?Sized + Serialize;
    /// Finishes the struct.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Struct-variant sub-serializer returned by
/// [`Serializer::serialize_struct_variant`].
pub trait SerializeStructVariant {
    /// Output of a successful serialization.
    type Ok;
    /// Error type of this format.
    type Error: Error;
    /// Serializes one named field.
    fn serialize_field<T>(&mut self, key: &'static str, value: &T) -> Result<(), Self::Error>
    where
        T: ?Sized + Serialize;
    /// Finishes the variant.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

// ---------------------------------------------------------------------------
// Serialize impls for the std types the workspace's wire types carry.
// ---------------------------------------------------------------------------

macro_rules! primitive_serialize {
    ($($ty:ty => $method:ident),* $(,)?) => {$(
        impl Serialize for $ty {
            #[inline]
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.$method(*self)
            }
        }
    )*};
}

primitive_serialize! {
    bool => serialize_bool,
    i8 => serialize_i8,
    i16 => serialize_i16,
    i32 => serialize_i32,
    i64 => serialize_i64,
    u8 => serialize_u8,
    u16 => serialize_u16,
    u32 => serialize_u32,
    u64 => serialize_u64,
    f32 => serialize_f32,
    f64 => serialize_f64,
}

impl Serialize for usize {
    /// Like the real crate, `usize` travels as `u64`.
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_u64(*self as u64)
    }
}

impl Serialize for isize {
    /// Like the real crate, `isize` travels as `i64`.
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_i64(*self as i64)
    }
}

impl Serialize for str {
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for String {
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for () {
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<T: ?Sized + Serialize> Serialize for &T {
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => serializer.serialize_some(v),
            None => serializer.serialize_none(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.len()))?;
        for element in self {
            seq.serialize_element(element)?;
        }
        seq.end()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

macro_rules! tuple_serialize {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let len = tuple_serialize!(@count $($name)+);
                let mut tup = serializer.serialize_tuple(len)?;
                $(SerializeTuple::serialize_element(&mut tup, &self.$idx)?;)+
                tup.end()
            }
        }
    )*};
    (@count $($name:ident)+) => { [$(tuple_serialize!(@one $name)),+].len() };
    (@one $name:ident) => { () };
}

tuple_serialize! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

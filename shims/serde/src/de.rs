//! Deserialization half of the serde-1 data-model subset — see the
//! crate docs for the exact coverage.
//!
//! The shape is the real crate's visitor protocol: a
//! [`Deserialize`] impl hands a [`Visitor`] to the format's
//! [`Deserializer`], which drives the matching `visit_*` hook. The
//! subset is aimed at *non-self-describing* formats (the workspace's
//! `replend-wire` encoding): `deserialize_any` and map/identifier
//! hooks are deliberately absent, structs decode positionally through
//! [`Visitor::visit_seq`], and enums decode through a `u32` variant
//! index via [`EnumAccess`]/[`VariantAccess`] — exactly the protocol
//! the real crate's derive uses with `bincode`-style formats.

use std::fmt::{self, Display};
use std::marker::PhantomData;

/// Trait implemented by deserialization errors (the
/// `serde::de::Error` contract).
pub trait Error: Sized + std::error::Error {
    /// Builds an error carrying a custom message.
    fn custom<T: Display>(msg: T) -> Self;

    /// A field expected by the type was missing from the input.
    fn missing_field(field: &'static str) -> Self {
        Self::custom(format_args!("missing field `{field}`"))
    }

    /// The input carried a variant index the type does not have.
    fn unknown_variant(index: u32, expected: &'static [&'static str]) -> Self {
        Self::custom(format_args!(
            "invalid variant index {index}, expected one of {expected:?}"
        ))
    }
}

/// A data structure that can be deserialized from any format
/// implementing [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    /// Deserializes `Self` from the given deserializer.
    fn deserialize<D>(deserializer: D) -> Result<Self, D::Error>
    where
        D: Deserializer<'de>;
}

/// A type deserializable without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// Stateful deserialization entry point; `PhantomData<T>` is the
/// stateless seed for a plain `T: Deserialize`.
pub trait DeserializeSeed<'de>: Sized {
    /// The produced value.
    type Value;
    /// Deserializes the value using this seed.
    fn deserialize<D>(self, deserializer: D) -> Result<Self::Value, D::Error>
    where
        D: Deserializer<'de>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;
    #[inline]
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

/// Fallback error for a `visit_*` hook the visitor did not override.
fn unexpected<'de, V: Visitor<'de>, E: Error>(visitor: &V, got: &str) -> E {
    struct Expecting<'a, 'de, V: Visitor<'de>>(&'a V, PhantomData<&'de ()>);
    impl<'de, V: Visitor<'de>> Display for Expecting<'_, 'de, V> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.expecting(f)
        }
    }
    E::custom(format_args!(
        "invalid type: got {got}, expected {}",
        Expecting(visitor, PhantomData)
    ))
}

/// Receiver of decoded values, driven by a [`Deserializer`]. Every
/// hook defaults to a type error so implementations only write the
/// shapes they accept.
pub trait Visitor<'de>: Sized {
    /// The produced value.
    type Value;

    /// Describes what this visitor expects (used in error messages).
    fn expecting(&self, formatter: &mut fmt::Formatter) -> fmt::Result;

    /// Receives a `bool`.
    fn visit_bool<E: Error>(self, v: bool) -> Result<Self::Value, E> {
        let _ = v;
        Err(unexpected(&self, "a boolean"))
    }
    /// Receives an `i8`.
    fn visit_i8<E: Error>(self, v: i8) -> Result<Self::Value, E> {
        self.visit_i64(v as i64)
    }
    /// Receives an `i16`.
    fn visit_i16<E: Error>(self, v: i16) -> Result<Self::Value, E> {
        self.visit_i64(v as i64)
    }
    /// Receives an `i32`.
    fn visit_i32<E: Error>(self, v: i32) -> Result<Self::Value, E> {
        self.visit_i64(v as i64)
    }
    /// Receives an `i64`.
    fn visit_i64<E: Error>(self, v: i64) -> Result<Self::Value, E> {
        let _ = v;
        Err(unexpected(&self, "a signed integer"))
    }
    /// Receives a `u8`.
    fn visit_u8<E: Error>(self, v: u8) -> Result<Self::Value, E> {
        self.visit_u64(v as u64)
    }
    /// Receives a `u16`.
    fn visit_u16<E: Error>(self, v: u16) -> Result<Self::Value, E> {
        self.visit_u64(v as u64)
    }
    /// Receives a `u32`.
    fn visit_u32<E: Error>(self, v: u32) -> Result<Self::Value, E> {
        self.visit_u64(v as u64)
    }
    /// Receives a `u64`.
    fn visit_u64<E: Error>(self, v: u64) -> Result<Self::Value, E> {
        let _ = v;
        Err(unexpected(&self, "an unsigned integer"))
    }
    /// Receives an `f32`.
    fn visit_f32<E: Error>(self, v: f32) -> Result<Self::Value, E> {
        self.visit_f64(v as f64)
    }
    /// Receives an `f64`.
    fn visit_f64<E: Error>(self, v: f64) -> Result<Self::Value, E> {
        let _ = v;
        Err(unexpected(&self, "a float"))
    }
    /// Receives a borrowed string.
    fn visit_str<E: Error>(self, v: &str) -> Result<Self::Value, E> {
        let _ = v;
        Err(unexpected(&self, "a string"))
    }
    /// Receives an owned string (defaults to [`Visitor::visit_str`]).
    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }
    /// Receives a byte string that does not outlive the call.
    fn visit_bytes<E: Error>(self, v: &[u8]) -> Result<Self::Value, E> {
        let _ = v;
        Err(unexpected(&self, "a byte string"))
    }
    /// Receives a byte string borrowed from the input, which outlives
    /// the deserializer (defaults to [`Visitor::visit_bytes`]).
    fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<Self::Value, E> {
        self.visit_bytes(v)
    }
    /// Receives an owned byte string (defaults to
    /// [`Visitor::visit_bytes`]).
    fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<Self::Value, E> {
        self.visit_bytes(&v)
    }
    /// Receives `Option::None`.
    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(unexpected(&self, "none"))
    }
    /// Receives `Option::Some`; the content follows in `deserializer`.
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(unexpected(&self, "some"))
    }
    /// Receives `()`.
    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(unexpected(&self, "unit"))
    }
    /// Receives a newtype struct; the content follows in
    /// `deserializer`.
    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(unexpected(&self, "a newtype struct"))
    }
    /// Receives a sequence (also positional structs and tuples).
    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
        let _ = seq;
        Err(unexpected(&self, "a sequence"))
    }
    /// Receives an enum.
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
        let _ = data;
        Err(unexpected(&self, "an enum"))
    }
}

/// Element-by-element access to a decoded sequence.
pub trait SeqAccess<'de> {
    /// Error type of this format.
    type Error: Error;
    /// Decodes the next element with a seed; `None` at the end.
    fn next_element_seed<T>(&mut self, seed: T) -> Result<Option<T::Value>, Self::Error>
    where
        T: DeserializeSeed<'de>;
    /// Decodes the next element; `None` at the end.
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }
    /// Number of remaining elements, when the format knows it.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Access to a decoded enum: first the variant key, then its content.
pub trait EnumAccess<'de>: Sized {
    /// Error type of this format.
    type Error: Error;
    /// Access to the chosen variant's content.
    type Variant: VariantAccess<'de, Error = Self::Error>;
    /// Decodes the variant key with a seed.
    fn variant_seed<V>(self, seed: V) -> Result<(V::Value, Self::Variant), Self::Error>
    where
        V: DeserializeSeed<'de>;
    /// Decodes the variant key (a `u32` index in positional formats).
    fn variant<V: Deserialize<'de>>(self) -> Result<(V, Self::Variant), Self::Error> {
        self.variant_seed(PhantomData)
    }
}

/// Access to the content of one enum variant.
pub trait VariantAccess<'de>: Sized {
    /// Error type of this format.
    type Error: Error;
    /// Finishes a unit variant (no content).
    fn unit_variant(self) -> Result<(), Self::Error>;
    /// Decodes a newtype variant's content with a seed.
    fn newtype_variant_seed<T>(self, seed: T) -> Result<T::Value, Self::Error>
    where
        T: DeserializeSeed<'de>;
    /// Decodes a newtype variant's content.
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error> {
        self.newtype_variant_seed(PhantomData)
    }
    /// Decodes a tuple variant's content through `visitor`.
    fn tuple_variant<V>(self, len: usize, visitor: V) -> Result<V::Value, Self::Error>
    where
        V: Visitor<'de>;
    /// Decodes a struct variant's content through `visitor`.
    fn struct_variant<V>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>
    where
        V: Visitor<'de>;
}

/// A format that can decode the data-model subset the workspace uses.
/// Hooks mirror the real crate method-for-method; `deserialize_any`,
/// maps and identifiers are absent (non-self-describing formats
/// cannot support them and no call site needs them).
pub trait Deserializer<'de>: Sized {
    /// Error type of this format.
    type Error: Error;

    /// Decodes a `bool`.
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes an `i8`.
    fn deserialize_i8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes an `i16`.
    fn deserialize_i16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes an `i32`.
    fn deserialize_i32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes an `i64`.
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes a `u8`.
    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes a `u16`.
    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes a `u32`.
    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes a `u64`.
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes an `f32`.
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes an `f64`.
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes a string.
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes an owned string.
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes a byte string, borrowed from the input where the
    /// format can.
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes a byte string the visitor wants to own.
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes an `Option`.
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes `()`.
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes a unit struct.
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// Decodes a newtype struct.
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// Decodes a variable-length sequence.
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error>;
    /// Decodes a fixed-length tuple.
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// Decodes a tuple struct.
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// Decodes a struct with named fields (positionally in
    /// non-self-describing formats).
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
    /// Decodes an enum.
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

// ---------------------------------------------------------------------------
// Deserialize impls for the std types the workspace's wire types carry.
// ---------------------------------------------------------------------------

macro_rules! primitive_deserialize {
    ($($ty:ty => ($method:ident, $visit:ident, $expect:literal)),* $(,)?) => {$(
        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct PrimitiveVisitor;
                impl<'de> Visitor<'de> for PrimitiveVisitor {
                    type Value = $ty;
                    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                        f.write_str($expect)
                    }
                    #[inline]
                    fn $visit<E: Error>(self, v: $ty) -> Result<$ty, E> {
                        Ok(v)
                    }
                }
                deserializer.$method(PrimitiveVisitor)
            }
        }
    )*};
}

primitive_deserialize! {
    bool => (deserialize_bool, visit_bool, "a boolean"),
    i8 => (deserialize_i8, visit_i8, "an i8"),
    i16 => (deserialize_i16, visit_i16, "an i16"),
    i32 => (deserialize_i32, visit_i32, "an i32"),
    i64 => (deserialize_i64, visit_i64, "an i64"),
    u8 => (deserialize_u8, visit_u8, "a u8"),
    u16 => (deserialize_u16, visit_u16, "a u16"),
    u32 => (deserialize_u32, visit_u32, "a u32"),
    u64 => (deserialize_u64, visit_u64, "a u64"),
    f32 => (deserialize_f32, visit_f32, "an f32"),
    f64 => (deserialize_f64, visit_f64, "an f64"),
}

impl<'de> Deserialize<'de> for usize {
    /// Like the real crate, `usize` travels as `u64`.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct UsizeVisitor;
        impl<'de> Visitor<'de> for UsizeVisitor {
            type Value = usize;
            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str("a usize")
            }
            fn visit_u64<E: Error>(self, v: u64) -> Result<usize, E> {
                usize::try_from(v).map_err(|_| E::custom("u64 out of usize range"))
            }
        }
        deserializer.deserialize_u64(UsizeVisitor)
    }
}

impl<'de> Deserialize<'de> for isize {
    /// Like the real crate, `isize` travels as `i64`.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct IsizeVisitor;
        impl<'de> Visitor<'de> for IsizeVisitor {
            type Value = isize;
            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str("an isize")
            }
            fn visit_i64<E: Error>(self, v: i64) -> Result<isize, E> {
                isize::try_from(v).map_err(|_| E::custom("i64 out of isize range"))
            }
        }
        deserializer.deserialize_i64(IsizeVisitor)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct StringVisitor;
        impl<'de> Visitor<'de> for StringVisitor {
            type Value = String;
            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str("a string")
            }
            fn visit_str<E: Error>(self, v: &str) -> Result<String, E> {
                Ok(v.to_owned())
            }
            fn visit_string<E: Error>(self, v: String) -> Result<String, E> {
                Ok(v)
            }
        }
        deserializer.deserialize_string(StringVisitor)
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct UnitVisitor;
        impl<'de> Visitor<'de> for UnitVisitor {
            type Value = ();
            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str("unit")
            }
            fn visit_unit<E: Error>(self) -> Result<(), E> {
                Ok(())
            }
        }
        deserializer.deserialize_unit(UnitVisitor)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct OptionVisitor<T>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>> Visitor<'de> for OptionVisitor<T> {
            type Value = Option<T>;
            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str("an option")
            }
            fn visit_none<E: Error>(self) -> Result<Option<T>, E> {
                Ok(None)
            }
            fn visit_some<D: Deserializer<'de>>(self, d: D) -> Result<Option<T>, D::Error> {
                T::deserialize(d).map(Some)
            }
        }
        deserializer.deserialize_option(OptionVisitor(PhantomData))
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct VecVisitor<T>(PhantomData<T>);
        impl<'de, T: Deserialize<'de>> Visitor<'de> for VecVisitor<T> {
            type Value = Vec<T>;
            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str("a sequence")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Vec<T>, A::Error> {
                let mut out = Vec::with_capacity(seq.size_hint().unwrap_or(0).min(4096));
                while let Some(element) = seq.next_element()? {
                    out.push(element);
                }
                Ok(out)
            }
        }
        deserializer.deserialize_seq(VecVisitor(PhantomData))
    }
}

macro_rules! tuple_deserialize {
    ($(($len:literal, $($name:ident),+))*) => {$(
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<De: Deserializer<'de>>(deserializer: De) -> Result<Self, De::Error> {
                struct TupleVisitor<$($name),+>(PhantomData<($($name,)+)>);
                impl<'de, $($name: Deserialize<'de>),+> Visitor<'de> for TupleVisitor<$($name),+> {
                    type Value = ($($name,)+);
                    fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                        f.write_str(concat!("a tuple of length ", $len))
                    }
                    #[allow(non_snake_case)]
                    fn visit_seq<ACC: SeqAccess<'de>>(
                        self,
                        mut seq: ACC,
                    ) -> Result<Self::Value, ACC::Error> {
                        $(
                            let $name = seq
                                .next_element()?
                                .ok_or_else(|| Error::custom("tuple ended early"))?;
                        )+
                        Ok(($($name,)+))
                    }
                }
                deserializer.deserialize_tuple($len, TupleVisitor(PhantomData))
            }
        }
    )*};
}

tuple_deserialize! {
    (1, A)
    (2, A, B)
    (3, A, B, C)
    (4, A, B, C, D)
}

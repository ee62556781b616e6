//! Offline stand-in for `serde 1` — see `shims/README.md`.
//!
//! Unlike the first-generation shim (marker traits only, no wire
//! format anywhere), this version implements the **serde 1 data-model
//! subset the workspace actually serializes**: primitives
//! (`bool`, the fixed-width ints, `usize`/`isize`, `f32`/`f64`,
//! strings, byte strings), `Option`, sequences (`Vec`/slices), tuples, unit /
//! newtype / tuple / named-field structs, and unit / newtype / tuple
//! / struct enum variants — the shapes of every
//! `#[derive(Serialize, Deserialize)]` type in the workspace. The
//! visitor-based trait protocol mirrors the real crate
//! method-for-method so that:
//!
//! * the sibling `serde_derive` shim emits real field-by-field impls
//!   written exactly as code against the real crate would be;
//! * format implementations (the workspace's `replend-wire` binary
//!   encoding) are written against real-serde-shaped `Serializer` /
//!   `Deserializer` traits and port to the real crate by filling in
//!   the hooks this subset omits.
//!
//! Byte strings are hooks only, as in the real crate: `Vec<u8>` and
//! `[u8]` still travel as sequences, and a type carries its bytes as
//! one run by calling [`Serializer::serialize_bytes`] and
//! [`Deserializer::deserialize_bytes`] itself.
//!
//! Omitted (no call site needs them): `deserialize_any` and the
//! self-describing machinery, maps, `char`, `i128`/`u128`, std impls
//! for borrowed data (`&str`, `&[u8]`), and the `#[serde(...)]`
//! attribute behaviours. Swapping to the real crates
//! remains the usual 5-line diff in the root manifest.

pub mod de;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};

#[cfg(test)]
mod tests {
    // The derive macros emit `serde::`-prefixed paths; inside the
    // shim itself that name is this crate.
    use crate as serde;
    use crate::de::DeserializeOwned;

    #[derive(Debug, PartialEq, super::Serialize, super::Deserialize)]
    struct Plain {
        x: u64,
        y: Option<f64>,
    }

    #[derive(Debug, PartialEq, super::Serialize, super::Deserialize)]
    struct Newtype(u64);

    #[derive(Debug, PartialEq, super::Serialize, super::Deserialize)]
    enum Enumish {
        A,
        B { v: f64 },
        C(u32),
    }

    fn assert_bounds<T: super::Serialize + DeserializeOwned>() {}

    #[test]
    fn derives_and_std_impls_compose() {
        assert_bounds::<Plain>();
        assert_bounds::<Newtype>();
        assert_bounds::<Enumish>();
        assert_bounds::<Vec<(u64, f64)>>();
        assert_bounds::<Option<Vec<bool>>>();
    }

    /// A toy self-describing-free format: every value flattens to a
    /// sequence of f64 "atoms" — enough to prove the derive walks
    /// every field in order and the visitor protocol round-trips.
    mod atoms {
        use crate::de;
        use crate::ser;
        use std::fmt;

        #[derive(Debug, PartialEq)]
        pub struct Err(pub String);
        impl fmt::Display for Err {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
        impl std::error::Error for Err {}
        impl ser::Error for Err {
            fn custom<T: fmt::Display>(msg: T) -> Self {
                Err(msg.to_string())
            }
        }
        impl de::Error for Err {
            fn custom<T: fmt::Display>(msg: T) -> Self {
                Err(msg.to_string())
            }
        }

        #[derive(Default)]
        pub struct Enc {
            pub atoms: Vec<f64>,
        }

        impl ser::Serializer for &mut Enc {
            type Ok = ();
            type Error = Err;
            type SerializeSeq = Self;
            type SerializeTuple = Self;
            type SerializeTupleStruct = Self;
            type SerializeTupleVariant = Self;
            type SerializeStruct = Self;
            type SerializeStructVariant = Self;

            fn serialize_bool(self, v: bool) -> Result<(), Err> {
                self.atoms.push(if v { 1.0 } else { 0.0 });
                Ok(())
            }
            fn serialize_i8(self, v: i8) -> Result<(), Err> {
                self.atoms.push(v as f64);
                Ok(())
            }
            fn serialize_i16(self, v: i16) -> Result<(), Err> {
                self.atoms.push(v as f64);
                Ok(())
            }
            fn serialize_i32(self, v: i32) -> Result<(), Err> {
                self.atoms.push(v as f64);
                Ok(())
            }
            fn serialize_i64(self, v: i64) -> Result<(), Err> {
                self.atoms.push(v as f64);
                Ok(())
            }
            fn serialize_u8(self, v: u8) -> Result<(), Err> {
                self.atoms.push(v as f64);
                Ok(())
            }
            fn serialize_u16(self, v: u16) -> Result<(), Err> {
                self.atoms.push(v as f64);
                Ok(())
            }
            fn serialize_u32(self, v: u32) -> Result<(), Err> {
                self.atoms.push(v as f64);
                Ok(())
            }
            fn serialize_u64(self, v: u64) -> Result<(), Err> {
                self.atoms.push(v as f64);
                Ok(())
            }
            fn serialize_f32(self, v: f32) -> Result<(), Err> {
                self.atoms.push(v as f64);
                Ok(())
            }
            fn serialize_f64(self, v: f64) -> Result<(), Err> {
                self.atoms.push(v);
                Ok(())
            }
            fn serialize_str(self, v: &str) -> Result<(), Err> {
                self.atoms.push(v.len() as f64);
                Ok(())
            }
            fn serialize_bytes(self, v: &[u8]) -> Result<(), Err> {
                self.atoms.push(v.len() as f64);
                self.atoms.extend(v.iter().map(|&b| b as f64));
                Ok(())
            }
            fn serialize_none(self) -> Result<(), Err> {
                self.atoms.push(0.0);
                Ok(())
            }
            fn serialize_some<T: ?Sized + ser::Serialize>(self, value: &T) -> Result<(), Err> {
                self.atoms.push(1.0);
                value.serialize(self)
            }
            fn serialize_unit(self) -> Result<(), Err> {
                Ok(())
            }
            fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Err> {
                Ok(())
            }
            fn serialize_unit_variant(
                self,
                _name: &'static str,
                variant_index: u32,
                _variant: &'static str,
            ) -> Result<(), Err> {
                self.atoms.push(variant_index as f64);
                Ok(())
            }
            fn serialize_newtype_struct<T: ?Sized + ser::Serialize>(
                self,
                _name: &'static str,
                value: &T,
            ) -> Result<(), Err> {
                value.serialize(self)
            }
            fn serialize_newtype_variant<T: ?Sized + ser::Serialize>(
                self,
                _name: &'static str,
                variant_index: u32,
                _variant: &'static str,
                value: &T,
            ) -> Result<(), Err> {
                self.atoms.push(variant_index as f64);
                value.serialize(self)
            }
            fn serialize_seq(self, len: Option<usize>) -> Result<Self, Err> {
                self.atoms.push(len.unwrap_or(0) as f64);
                Ok(self)
            }
            fn serialize_tuple(self, _len: usize) -> Result<Self, Err> {
                Ok(self)
            }
            fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, Err> {
                Ok(self)
            }
            fn serialize_tuple_variant(
                self,
                _name: &'static str,
                variant_index: u32,
                _variant: &'static str,
                _len: usize,
            ) -> Result<Self, Err> {
                self.atoms.push(variant_index as f64);
                Ok(self)
            }
            fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, Err> {
                Ok(self)
            }
            fn serialize_struct_variant(
                self,
                _name: &'static str,
                variant_index: u32,
                _variant: &'static str,
                _len: usize,
            ) -> Result<Self, Err> {
                self.atoms.push(variant_index as f64);
                Ok(self)
            }
        }

        impl ser::SerializeSeq for &mut Enc {
            type Ok = ();
            type Error = Err;
            fn serialize_element<T: ?Sized + ser::Serialize>(
                &mut self,
                value: &T,
            ) -> Result<(), Err> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), Err> {
                Ok(())
            }
        }
        impl ser::SerializeTuple for &mut Enc {
            type Ok = ();
            type Error = Err;
            fn serialize_element<T: ?Sized + ser::Serialize>(
                &mut self,
                value: &T,
            ) -> Result<(), Err> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), Err> {
                Ok(())
            }
        }
        impl ser::SerializeTupleStruct for &mut Enc {
            type Ok = ();
            type Error = Err;
            fn serialize_field<T: ?Sized + ser::Serialize>(
                &mut self,
                value: &T,
            ) -> Result<(), Err> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), Err> {
                Ok(())
            }
        }
        impl ser::SerializeTupleVariant for &mut Enc {
            type Ok = ();
            type Error = Err;
            fn serialize_field<T: ?Sized + ser::Serialize>(
                &mut self,
                value: &T,
            ) -> Result<(), Err> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), Err> {
                Ok(())
            }
        }
        impl ser::SerializeStruct for &mut Enc {
            type Ok = ();
            type Error = Err;
            fn serialize_field<T: ?Sized + ser::Serialize>(
                &mut self,
                _key: &'static str,
                value: &T,
            ) -> Result<(), Err> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), Err> {
                Ok(())
            }
        }
        impl ser::SerializeStructVariant for &mut Enc {
            type Ok = ();
            type Error = Err;
            fn serialize_field<T: ?Sized + ser::Serialize>(
                &mut self,
                _key: &'static str,
                value: &T,
            ) -> Result<(), Err> {
                value.serialize(&mut **self)
            }
            fn end(self) -> Result<(), Err> {
                Ok(())
            }
        }

        pub struct Dec<'a> {
            pub atoms: &'a [f64],
            pub pos: usize,
        }

        impl Dec<'_> {
            fn next(&mut self) -> Result<f64, Err> {
                let v = *self
                    .atoms
                    .get(self.pos)
                    .ok_or_else(|| Err("out of atoms".into()))?;
                self.pos += 1;
                Ok(v)
            }
        }

        impl<'de> de::Deserializer<'de> for &mut Dec<'_> {
            type Error = Err;
            fn deserialize_bool<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let v = self.next()?;
                visitor.visit_bool(v != 0.0)
            }
            fn deserialize_i8<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let v = self.next()?;
                visitor.visit_i8(v as i8)
            }
            fn deserialize_i16<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let v = self.next()?;
                visitor.visit_i16(v as i16)
            }
            fn deserialize_i32<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let v = self.next()?;
                visitor.visit_i32(v as i32)
            }
            fn deserialize_i64<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let v = self.next()?;
                visitor.visit_i64(v as i64)
            }
            fn deserialize_u8<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let v = self.next()?;
                visitor.visit_u8(v as u8)
            }
            fn deserialize_u16<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let v = self.next()?;
                visitor.visit_u16(v as u16)
            }
            fn deserialize_u32<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let v = self.next()?;
                visitor.visit_u32(v as u32)
            }
            fn deserialize_u64<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let v = self.next()?;
                visitor.visit_u64(v as u64)
            }
            fn deserialize_f32<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let v = self.next()?;
                visitor.visit_f32(v as f32)
            }
            fn deserialize_f64<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let v = self.next()?;
                visitor.visit_f64(v)
            }
            fn deserialize_str<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let _ = self.next()?;
                visitor.visit_str("")
            }
            fn deserialize_string<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let _ = self.next()?;
                visitor.visit_string(String::new())
            }
            fn deserialize_bytes<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                self.deserialize_byte_buf(visitor)
            }
            fn deserialize_byte_buf<V: de::Visitor<'de>>(
                self,
                visitor: V,
            ) -> Result<V::Value, Err> {
                let len = self.next()? as usize;
                let bytes = (0..len)
                    .map(|_| self.next().map(|atom| atom as u8))
                    .collect::<Result<Vec<u8>, Err>>()?;
                visitor.visit_byte_buf(bytes)
            }
            fn deserialize_option<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                if self.next()? != 0.0 {
                    visitor.visit_some(self)
                } else {
                    visitor.visit_none()
                }
            }
            fn deserialize_unit<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                visitor.visit_unit()
            }
            fn deserialize_unit_struct<V: de::Visitor<'de>>(
                self,
                _name: &'static str,
                visitor: V,
            ) -> Result<V::Value, Err> {
                visitor.visit_unit()
            }
            fn deserialize_newtype_struct<V: de::Visitor<'de>>(
                self,
                _name: &'static str,
                visitor: V,
            ) -> Result<V::Value, Err> {
                visitor.visit_newtype_struct(self)
            }
            fn deserialize_seq<V: de::Visitor<'de>>(self, visitor: V) -> Result<V::Value, Err> {
                let len = self.next()? as usize;
                visitor.visit_seq(Counted {
                    de: self,
                    left: len,
                })
            }
            fn deserialize_tuple<V: de::Visitor<'de>>(
                self,
                len: usize,
                visitor: V,
            ) -> Result<V::Value, Err> {
                visitor.visit_seq(Counted {
                    de: self,
                    left: len,
                })
            }
            fn deserialize_tuple_struct<V: de::Visitor<'de>>(
                self,
                _name: &'static str,
                len: usize,
                visitor: V,
            ) -> Result<V::Value, Err> {
                visitor.visit_seq(Counted {
                    de: self,
                    left: len,
                })
            }
            fn deserialize_struct<V: de::Visitor<'de>>(
                self,
                _name: &'static str,
                fields: &'static [&'static str],
                visitor: V,
            ) -> Result<V::Value, Err> {
                visitor.visit_seq(Counted {
                    de: self,
                    left: fields.len(),
                })
            }
            fn deserialize_enum<V: de::Visitor<'de>>(
                self,
                _name: &'static str,
                _variants: &'static [&'static str],
                visitor: V,
            ) -> Result<V::Value, Err> {
                visitor.visit_enum(Variant { de: self })
            }
        }

        pub struct Counted<'a, 'b> {
            de: &'a mut Dec<'b>,
            left: usize,
        }

        impl<'de> de::SeqAccess<'de> for Counted<'_, '_> {
            type Error = Err;
            fn next_element_seed<T: de::DeserializeSeed<'de>>(
                &mut self,
                seed: T,
            ) -> Result<Option<T::Value>, Err> {
                if self.left == 0 {
                    return Ok(None);
                }
                self.left -= 1;
                seed.deserialize(&mut *self.de).map(Some)
            }
            fn size_hint(&self) -> Option<usize> {
                Some(self.left)
            }
        }

        pub struct Variant<'a, 'b> {
            de: &'a mut Dec<'b>,
        }

        impl<'de> de::EnumAccess<'de> for Variant<'_, '_> {
            type Error = Err;
            type Variant = Self;
            fn variant_seed<V: de::DeserializeSeed<'de>>(
                self,
                seed: V,
            ) -> Result<(V::Value, Self), Err> {
                let idx = seed.deserialize(&mut *self.de)?;
                Ok((idx, self))
            }
        }

        impl<'de> de::VariantAccess<'de> for Variant<'_, '_> {
            type Error = Err;
            fn unit_variant(self) -> Result<(), Err> {
                Ok(())
            }
            fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
                self,
                seed: T,
            ) -> Result<T::Value, Err> {
                seed.deserialize(self.de)
            }
            fn tuple_variant<V: de::Visitor<'de>>(
                self,
                len: usize,
                visitor: V,
            ) -> Result<V::Value, Err> {
                visitor.visit_seq(Counted {
                    de: self.de,
                    left: len,
                })
            }
            fn struct_variant<V: de::Visitor<'de>>(
                self,
                fields: &'static [&'static str],
                visitor: V,
            ) -> Result<V::Value, Err> {
                visitor.visit_seq(Counted {
                    de: self.de,
                    left: fields.len(),
                })
            }
        }
    }

    fn round_trip<T>(value: &T) -> T
    where
        T: super::Serialize + DeserializeOwned,
    {
        let mut enc = atoms::Enc::default();
        value.serialize(&mut enc).expect("encode");
        let mut dec = atoms::Dec {
            atoms: &enc.atoms,
            pos: 0,
        };
        let out = T::deserialize(&mut dec).expect("decode");
        assert_eq!(dec.pos, enc.atoms.len(), "trailing atoms");
        out
    }

    #[test]
    fn derived_struct_round_trips() {
        let v = Plain { x: 7, y: Some(2.5) };
        assert_eq!(round_trip(&v), v);
        let v = Plain { x: 0, y: None };
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn derived_newtype_and_enum_round_trip() {
        assert_eq!(round_trip(&Newtype(99)), Newtype(99));
        for v in [Enumish::A, Enumish::B { v: -1.25 }, Enumish::C(3)] {
            assert_eq!(round_trip(&v), v);
        }
    }

    /// Bytes carried as one run through the byte-string hooks.
    #[derive(Debug, PartialEq)]
    struct Blob(Vec<u8>);

    impl super::Serialize for Blob {
        fn serialize<S: super::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
            serializer.serialize_bytes(&self.0)
        }
    }

    impl<'de> super::Deserialize<'de> for Blob {
        fn deserialize<D: super::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
            struct BlobVisitor;
            impl<'de> crate::de::Visitor<'de> for BlobVisitor {
                type Value = Blob;
                fn expecting(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
                    f.write_str("a byte string")
                }
                // The only hook written: the format hands over an
                // owned buffer, which reaches it through the default
                // `visit_byte_buf`.
                fn visit_bytes<E: crate::de::Error>(self, v: &[u8]) -> Result<Blob, E> {
                    Ok(Blob(v.to_vec()))
                }
            }
            deserializer.deserialize_bytes(BlobVisitor)
        }
    }

    #[test]
    fn byte_strings_round_trip_through_the_hooks() {
        for bytes in [vec![], vec![0u8, 7, 255]] {
            assert_eq!(round_trip(&Blob(bytes.clone())), Blob(bytes));
        }
    }

    #[test]
    fn std_impls_round_trip() {
        let v: Vec<(u64, f64)> = vec![(1, 0.5), (2, -0.5)];
        assert_eq!(round_trip(&v), v);
        let o: Option<Vec<bool>> = Some(vec![true, false]);
        assert_eq!(round_trip(&o), o);
        assert_eq!(round_trip(&42usize), 42usize);
    }
}

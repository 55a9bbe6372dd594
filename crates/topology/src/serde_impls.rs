//! Serde support for the topology types.
//!
//! Serialization goes through explicit mirror types so the on-disk format
//! is stable, human-readable and independent of internal `Arc` sharing:
//! complexes serialize as facet lists (faces are re-derived on load),
//! carrier maps as `(simplex, image-facets)` pairs. Deserialization
//! re-establishes every structural invariant through the ordinary
//! constructors.

use serde::de::Error as DeError;
use serde::{Content, Deserialize, Deserializer, Serialize, Serializer};

use crate::carrier::CarrierMap;
use crate::color::Color;
use crate::complex::Complex;
use crate::simplex::Simplex;
use crate::value::Value;
use crate::vertex::Vertex;

/// Mirror of [`Value`] in the on-disk format: an externally tagged enum
/// with snake_case tags (`{"int": 5}`, `{"view": [...]}`, …).
enum ValueRepr {
    Int(i64),
    Name(String),
    Pair(Box<ValueRepr>, Box<ValueRepr>),
    View(Vec<VertexRepr>),
    Split(Box<ValueRepr>, u32),
}

/// Mirror of [`Vertex`]: `{"color": c, "value": v}`.
struct VertexRepr {
    color: u8,
    value: ValueRepr,
}

impl ValueRepr {
    fn to_content(&self) -> Content {
        let (tag, payload) = match self {
            ValueRepr::Int(i) => ("int", Content::I64(*i)),
            ValueRepr::Name(s) => ("name", Content::Str(s.clone())),
            ValueRepr::Pair(a, b) => ("pair", Content::Seq(vec![a.to_content(), b.to_content()])),
            ValueRepr::View(vs) => (
                "view",
                Content::Seq(vs.iter().map(VertexRepr::to_content).collect()),
            ),
            ValueRepr::Split(b, i) => (
                "split",
                Content::Seq(vec![b.to_content(), Content::I64(i64::from(*i))]),
            ),
        };
        Content::Map(vec![(tag.to_owned(), payload)])
    }

    fn from_content(c: &Content) -> Result<Self, String> {
        let Content::Map(entries) = c else {
            return Err(format!("expected a tagged value object, found {c:?}"));
        };
        let [(tag, payload)] = entries.as_slice() else {
            return Err("expected exactly one variant tag".to_owned());
        };
        let two = |payload: &Content| -> Result<(Content, Content), String> {
            match payload {
                Content::Seq(items) if items.len() == 2 => Ok((items[0].clone(), items[1].clone())),
                other => Err(format!("expected a 2-element sequence, found {other:?}")),
            }
        };
        match tag.as_str() {
            "int" => match payload {
                Content::I64(i) => Ok(ValueRepr::Int(*i)),
                other => Err(format!("expected an integer, found {other:?}")),
            },
            "name" => match payload {
                Content::Str(s) => Ok(ValueRepr::Name(s.clone())),
                other => Err(format!("expected a string, found {other:?}")),
            },
            "pair" => {
                let (a, b) = two(payload)?;
                Ok(ValueRepr::Pair(
                    Box::new(ValueRepr::from_content(&a)?),
                    Box::new(ValueRepr::from_content(&b)?),
                ))
            }
            "view" => match payload {
                Content::Seq(items) => Ok(ValueRepr::View(
                    items
                        .iter()
                        .map(VertexRepr::from_content)
                        .collect::<Result<_, _>>()?,
                )),
                other => Err(format!("expected a sequence, found {other:?}")),
            },
            "split" => {
                let (base, copy) = two(payload)?;
                let copy = match copy {
                    Content::I64(i) => {
                        u32::try_from(i).map_err(|_| "split copy out of range".to_owned())?
                    }
                    other => return Err(format!("expected an integer, found {other:?}")),
                };
                Ok(ValueRepr::Split(
                    Box::new(ValueRepr::from_content(&base)?),
                    copy,
                ))
            }
            other => Err(format!("unknown value variant '{other}'")),
        }
    }
}

impl VertexRepr {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("color".to_owned(), Content::I64(i64::from(self.color))),
            ("value".to_owned(), self.value.to_content()),
        ])
    }

    fn from_content(c: &Content) -> Result<Self, String> {
        let Content::Map(entries) = c else {
            return Err(format!("expected a vertex object, found {c:?}"));
        };
        let field = |name: &str| -> Result<&Content, String> {
            entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing vertex field '{name}'"))
        };
        let color = match field("color")? {
            Content::I64(i) => {
                u8::try_from(*i).map_err(|_| format!("color {i} out of u8 range"))?
            }
            other => return Err(format!("expected an integer color, found {other:?}")),
        };
        let value = ValueRepr::from_content(field("value")?)?;
        Ok(VertexRepr { color, value })
    }
}

impl Serialize for ValueRepr {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_content(self.to_content())
    }
}

impl<'de> Deserialize<'de> for ValueRepr {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        ValueRepr::from_content(&d.deserialize_content()?).map_err(D::Error::custom)
    }
}

impl Serialize for VertexRepr {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_content(self.to_content())
    }
}

impl<'de> Deserialize<'de> for VertexRepr {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        VertexRepr::from_content(&d.deserialize_content()?).map_err(D::Error::custom)
    }
}

impl From<&Value> for ValueRepr {
    fn from(v: &Value) -> Self {
        match v {
            Value::Int(i) => ValueRepr::Int(*i),
            Value::Name(s) => ValueRepr::Name(s.to_string()),
            Value::Pair(a, b) => ValueRepr::Pair(
                Box::new(ValueRepr::from(&**a)),
                Box::new(ValueRepr::from(&**b)),
            ),
            Value::View(vs) => ValueRepr::View(vs.iter().map(VertexRepr::from).collect()),
            Value::Split(b, i) => ValueRepr::Split(Box::new(ValueRepr::from(&**b)), *i),
        }
    }
}

impl From<&VertexRepr> for Vertex {
    fn from(r: &VertexRepr) -> Self {
        Vertex::new(Color::new(r.color), Value::from(&r.value))
    }
}

impl From<&ValueRepr> for Value {
    fn from(r: &ValueRepr) -> Self {
        match r {
            ValueRepr::Int(i) => Value::Int(*i),
            ValueRepr::Name(s) => Value::name(s),
            ValueRepr::Pair(a, b) => Value::pair(Value::from(&**a), Value::from(&**b)),
            ValueRepr::View(vs) => Value::view(vs.iter().map(Vertex::from)),
            ValueRepr::Split(b, i) => Value::split(Value::from(&**b), *i),
        }
    }
}

impl From<&Vertex> for VertexRepr {
    fn from(v: &Vertex) -> Self {
        VertexRepr {
            color: v.color().index(),
            value: ValueRepr::from(v.value()),
        }
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        ValueRepr::from(self).serialize(s)
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(Value::from(&ValueRepr::deserialize(d)?))
    }
}

impl Serialize for Vertex {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        VertexRepr::from(self).serialize(s)
    }
}

impl<'de> Deserialize<'de> for Vertex {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let r = VertexRepr::deserialize(d)?;
        if usize::from(r.color) >= Color::MAX_COLORS {
            return Err(D::Error::custom(format!("color {} out of range", r.color)));
        }
        Ok(Vertex::from(&r))
    }
}

impl Serialize for Simplex {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.vertices().serialize(s)
    }
}

impl<'de> Deserialize<'de> for Simplex {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let verts = Vec::<Vertex>::deserialize(d)?;
        if verts.is_empty() {
            return Err(D::Error::custom("a simplex needs at least one vertex"));
        }
        Ok(Simplex::new(verts))
    }
}

impl Serialize for Complex {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let facets: Vec<&Simplex> = self.facets().collect();
        facets.serialize(s)
    }
}

impl<'de> Deserialize<'de> for Complex {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(Complex::from_facets(Vec::<Simplex>::deserialize(d)?))
    }
}

impl Serialize for CarrierMap {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let entries: Vec<(&Simplex, Vec<&Simplex>)> = self
            .iter()
            .map(|(k, img)| (k, img.facets().collect()))
            .collect();
        entries.serialize(s)
    }
}

impl<'de> Deserialize<'de> for CarrierMap {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let entries = Vec::<(Simplex, Vec<Simplex>)>::deserialize(d)?;
        Ok(entries
            .into_iter()
            .map(|(k, facets)| (k, Complex::from_facets(facets)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T>(v: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de>,
    {
        let json = serde_json::to_string(v).expect("serialize");
        serde_json::from_str(&json).expect("deserialize")
    }

    #[test]
    fn value_roundtrips() {
        let deep = Value::split(
            Value::pair(
                Value::Int(-3),
                Value::view([Vertex::of(1, 9), Vertex::of(0, 2)]),
            ),
            2,
        );
        assert_eq!(roundtrip(&deep), deep);
        assert_eq!(roundtrip(&Value::name("x")), Value::name("x"));
    }

    #[test]
    fn simplex_and_complex_roundtrip() {
        let tri = Simplex::from_iter([Vertex::of(0, 0), Vertex::of(1, 1), Vertex::of(2, 2)]);
        assert_eq!(roundtrip(&tri), tri);
        let k = Complex::from_facets([tri]).skeleton(1);
        let k2 = roundtrip(&k);
        assert_eq!(k2, k);
        assert_eq!(k2.simplices().count(), k.simplices().count());
    }

    #[test]
    fn carrier_map_roundtrip() {
        let x = Simplex::vertex(Vertex::of(0, 0));
        let img = Complex::from_facets([Simplex::vertex(Vertex::of(0, 7))]);
        let cm: CarrierMap = [(x, img)].into_iter().collect();
        let cm2 = roundtrip(&cm);
        assert_eq!(cm2, cm);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(serde_json::from_str::<Simplex>("[]").is_err());
        let bad_color = r#"{"color": 99, "value": {"int": 0}}"#;
        assert!(serde_json::from_str::<Vertex>(bad_color).is_err());
    }

    #[test]
    fn format_is_human_readable() {
        let v = Vertex::of(2, 5);
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, r#"{"color":2,"value":{"int":5}}"#);
    }
}

//! The declaration machinery both JSON wires derive their codec from: the
//! worker wire ([`crate::transport::proto`]) and `dmac-serve`'s client
//! wire. A wire declares its messages once with [`messages!`](crate::messages)
//! — the key a message's kind travels under, then each enum, each variant
//! with its kind and its fields in wire order — and the objects they list
//! with [`objects!`](crate::objects). A message's encoder and decoder are
//! derived from that one declaration, so no key is spelled twice; the
//! wire adds its envelope (a frame, a sequence number, a body).
//!
//! A field travels under its name or the key given (`= "k"`), through its
//! type's [`Field`] codec or the one given (`| Hex`). A variant of one
//! unnamed field (`Result = "result" (ProgramResult)`) carries it
//! [`Flat`]: a declared object's fields, or a document's members, beside
//! the kind.

use std::fmt::Write as _;

use crate::json::escape;
use crate::jsonin::Json;

/// A field's key: its name, or the key given.
#[doc(hidden)]
#[macro_export]
macro_rules! __key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident, $key:literal) => {
        $key
    };
}

/// A field's codec: its type, or the codec given.
#[doc(hidden)]
#[macro_export]
macro_rules! __via {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $via:ty) => {
        $via
    };
}

/// `$v` alone: binds a flat variant's field in a pattern, inside a
/// repetition that has to name the field's type to repeat.
#[doc(hidden)]
#[macro_export]
macro_rules! __bind {
    ($v:ident, $($ty:tt)*) => {
        $v
    };
}

/// Declare the objects a message lists: structs whose fields travel in
/// declaration order, each under its name or the key given (`= "k"`),
/// through its type's [`Field`] codec or the one given (`| Hex`).
#[macro_export]
macro_rules! objects {
    ($($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* $field:ident $(= $key:literal)?: $ty:ty $(| $via:ty)?),* $(,)?
    })*) => {$(
        $(#[$meta])*
        pub struct $name { $($(#[$fmeta])* pub $field: $ty),* }

        impl $crate::codec::Fields for $name {
            fn put_fields(&self, out: &mut $crate::codec::Out) {
                $(<$crate::__via!($ty $(, $via)?) as $crate::codec::Field<$ty>>::put(
                    &self.$field, $crate::__key!($field $(, $key)?), out
                );)*
            }

            fn get_fields(msg: &mut $crate::codec::In) -> ::std::result::Result<$name, String> {
                Ok($name {$($field: <$crate::__via!($ty $(, $via)?) as $crate::codec::Field<$ty>>::get(
                    $crate::__key!($field $(, $key)?), msg
                )?),*})
            }
        }

        impl $crate::codec::Value for $name {
            fn render(&self, buf: &mut String) {
                let mut out = $crate::codec::Out::new(::std::mem::take(buf));
                $crate::codec::Fields::put_fields(self, &mut out);
                *buf = out.close();
            }

            fn read(head: &$crate::jsonin::Json) -> ::std::result::Result<$name, String> {
                $crate::codec::Fields::get_fields(&mut $crate::codec::In::new(head))
            }
        }
    )*};
}

/// Declare a wire's messages: the key every message's kind travels under,
/// then each enum — what its messages are called, then each variant with
/// its kind and its fields in wire order, as [`objects!`](crate::objects)
/// declares them, or one unnamed field carried [`Flat`]. A kind that two
/// variants share is the first whose fields are all there.
#[macro_export]
macro_rules! messages {
    ($tag:literal; $($what:literal $(#[$meta:meta])* pub enum $name:ident {$(
        $(#[$vmeta:meta])* $variant:ident = $kind:literal
        $({ $($(#[$fmeta:meta])* $field:ident $(= $key:literal)?: $ty:ty $(| $via:ty)?),* $(,)? })?
        $(($flat:ty))?
    ),* $(,)?})*) => {$(
        $(#[$meta])*
        pub enum $name {$(
            $(#[$vmeta])* $variant $({ $($(#[$fmeta])* $field: $ty),* })? $(($flat))?
        ),*}

        impl $name {
            /// The message's kind: what its tag key says.
            pub fn kind(&self) -> &'static str {
                match self {$( $name::$variant { .. } => $kind ),*}
            }
        }

        impl $crate::codec::Message for $name {
            fn put(&self, out: &mut $crate::codec::Out) {
                let _ = ::std::fmt::Write::write_fmt(
                    out.key($tag), format_args!("\"{}\"", self.kind())
                );
                match self {$(
                    $name::$variant $({ $($field),* })? $(($crate::__bind!(flat, $flat)))? => {
                        $($(<$crate::__via!($ty $(, $via)?) as $crate::codec::Field<$ty>>::put(
                            $field, $crate::__key!($field $(, $key)?), out
                        );)*)?
                        $(<$crate::codec::Flat as $crate::codec::Field<$flat>>::put(
                            flat, $tag, out
                        );)?
                    }
                )*}
            }

            fn read(msg: &mut $crate::codec::In) -> ::std::result::Result<$name, String> {
                let t = <String as $crate::codec::Field>::get($tag, msg)?;
                let mut first = None;
                $(if t == $kind {
                    fn read(msg: &mut $crate::codec::In) -> ::std::result::Result<$name, String> {
                        let m = $name::$variant $({ $($field:
                            <$crate::__via!($ty $(, $via)?) as $crate::codec::Field<$ty>>::get(
                                $crate::__key!($field $(, $key)?), msg
                            )?
                        ),* })? $((
                            <$crate::codec::Flat as $crate::codec::Field<$flat>>::get($tag, msg)?
                        ))?;
                        msg.done($kind).map(|()| m)
                    }
                    match read(&mut msg.again()) {
                        Ok(m) => return Ok(m),
                        Err(e) => first = Some(match first {
                            Some(f) => format!("{f}; or {e}"),
                            None => e,
                        }),
                    }
                })*
                Err(first.unwrap_or_else(|| format!("unknown {} '{t}'", $what)))
            }
        }
    )*};
}

/// A declared message: written as its tag and fields, read back from them.
pub trait Message: Sized {
    /// Write the message's tag, then its fields.
    fn put(&self, out: &mut Out);
    /// Read a message: its tag, then the fields of the variant it names.
    fn read(msg: &mut In) -> Result<Self, String>;
}

/// A message being encoded: its header, written straight into one buffer
/// — `{`, then `"key":value` per field — and its body once a field has
/// given it one.
pub struct Out {
    head: String,
    open: bool,
    pub(crate) body: Option<Vec<u8>>,
}

impl Out {
    /// An object written at the end of `head`.
    pub fn new(head: String) -> Out {
        let (open, body) = (false, None);
        Out { head, open, body }
    }

    /// Start field `key` (a declared name, or one escaped: nothing to
    /// escape): the buffer its value is written to next.
    pub fn key(&mut self, key: &str) -> &mut String {
        self.head.push(if self.open { ',' } else { '{' });
        self.open = true;
        let _ = write!(self.head, "\"{key}\":");
        &mut self.head
    }

    /// The buffer, the object closed.
    pub fn close(mut self) -> String {
        if !self.open {
            self.head.push('{');
        }
        self.head.push('}');
        self.head
    }
}

/// A message being decoded: its header, and its body until a field takes
/// it.
pub struct In<'a> {
    pub(crate) head: &'a Json,
    pub(crate) body: Option<&'a [u8]>,
}

impl<'a> In<'a> {
    /// An object with no body.
    pub fn new(head: &'a Json) -> In<'a> {
        In { head, body: None }
    }

    /// Field `key` through `read` — or what is wrong with it, said after
    /// the field's name.
    pub fn read<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Json) -> Result<T, String>,
    ) -> Result<T, String> {
        let v = self.head.get(key).ok_or_else(|| "is missing".to_string());
        v.and_then(read).map_err(|e| format!("field '{key}' {e}"))
    }

    /// Every field of a `t` read: a body none of them took is an error.
    pub fn done(&self, t: &str) -> Result<(), String> {
        match self.body {
            Some(_) => Err(format!("{t} carries a DMB3 body it has no use for")),
            None => Ok(()),
        }
    }

    /// The message again, for the next variant of a shared kind to try.
    pub fn again(&self) -> In<'a> {
        In { ..*self }
    }
}

/// How a field of type `T` travels under its key.
pub trait Field<T = Self> {
    /// Write `v` as field `key`.
    fn put(v: &T, key: &str, out: &mut Out);
    /// Read field `key`.
    fn get(key: &str, msg: &mut In) -> Result<T, String>;
}

/// A value as it travels in a header: written as JSON, and read back —
/// or what is wrong with it, said after the name of the field it is in.
pub trait Value: Sized {
    /// Append the value's JSON.
    fn render(&self, buf: &mut String);
    /// Read the value.
    fn read(j: &Json) -> Result<Self, String>;
}

/// A declared object's fields, written into and read from the object
/// they travel in.
pub trait Fields: Sized {
    /// Write every field.
    fn put_fields(&self, out: &mut Out);
    /// Read every field.
    fn get_fields(msg: &mut In) -> Result<Self, String>;
}

/// Most fields are a value under their key.
impl<T: Value> Field for T {
    fn put(v: &T, key: &str, out: &mut Out) {
        v.render(out.key(key));
    }

    fn get(key: &str, msg: &mut In) -> Result<T, String> {
        msg.read(key, T::read)
    }
}

impl Value for u64 {
    fn render(&self, buf: &mut String) {
        let _ = write!(buf, "{self}");
    }

    fn read(j: &Json) -> Result<u64, String> {
        j.as_u64().ok_or_else(|| "is not an integer".into())
    }
}

impl Value for usize {
    fn render(&self, buf: &mut String) {
        (*self as u64).render(buf);
    }

    fn read(j: &Json) -> Result<usize, String> {
        u64::read(j).map(|v| v as usize)
    }
}

impl Value for u32 {
    fn render(&self, buf: &mut String) {
        u64::from(*self).render(buf);
    }

    fn read(j: &Json) -> Result<u32, String> {
        u32::try_from(u64::read(j)?).map_err(|_| "is not a u32".into())
    }
}

impl Value for bool {
    fn render(&self, buf: &mut String) {
        buf.push_str(if *self { "true" } else { "false" });
    }

    fn read(j: &Json) -> Result<bool, String> {
        j.as_bool().ok_or_else(|| "is not a boolean".into())
    }
}

impl Value for String {
    fn render(&self, buf: &mut String) {
        buf.push_str(&escape(self));
    }

    fn read(j: &Json) -> Result<String, String> {
        j.as_str()
            .map(String::from)
            .ok_or_else(|| "is not a string".into())
    }
}

/// An `f64` travels as its bits ([`Hex`]): JSON numbers carry 53 bits
/// exactly.
impl Value for f64 {
    fn render(&self, buf: &mut String) {
        let _ = write!(buf, "\"{:016x}\"", self.to_bits());
    }

    fn read(j: &Json) -> Result<f64, String> {
        let hex = |s: &str| {
            let digits = s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit());
            digits.then(|| u64::from_str_radix(s, 16).ok()).flatten()
        };
        let bits = j.as_str().and_then(hex).ok_or("is not 16 hex digits")?;
        Ok(f64::from_bits(bits))
    }
}

/// A JSON document travels as itself.
impl Value for Json {
    fn render(&self, buf: &mut String) {
        let _ = write!(buf, "{self}");
    }

    fn read(j: &Json) -> Result<Json, String> {
        Ok(j.clone())
    }
}

impl<T: Value> Value for Vec<T> {
    fn render(&self, buf: &mut String) {
        buf.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            x.render(buf);
        }
        buf.push(']');
    }

    fn read(j: &Json) -> Result<Vec<T>, String> {
        let items = j.as_arr().ok_or("is not an array")?.iter().enumerate();
        items
            .map(|(i, j)| T::read(j).map_err(|e| format!("item {i} {e}")))
            .collect()
    }
}

/// Absent when there is none.
impl<T: Value> Field for Option<T> {
    fn put(v: &Option<T>, key: &str, out: &mut Out) {
        if let Some(v) = v {
            T::put(v, key, out);
        }
    }

    fn get(key: &str, msg: &mut In) -> Result<Option<T>, String> {
        let present = msg.head.get(key).is_some();
        present.then(|| T::get(key, msg)).transpose()
    }
}

/// The codec of a `u64` — or of each of a list of them — that travels as
/// its bits, 16 hex digits.
pub struct Hex;

impl Field<u64> for Hex {
    fn put(v: &u64, key: &str, out: &mut Out) {
        f64::put(&f64::from_bits(*v), key, out);
    }

    fn get(key: &str, msg: &mut In) -> Result<u64, String> {
        f64::get(key, msg).map(f64::to_bits)
    }
}

impl Field<Vec<u64>> for Hex {
    fn put(v: &Vec<u64>, key: &str, out: &mut Out) {
        let cells: Vec<f64> = v.iter().map(|b| f64::from_bits(*b)).collect();
        cells.render(out.key(key));
    }

    fn get(key: &str, msg: &mut In) -> Result<Vec<u64>, String> {
        let cells = Vec::<f64>::get(key, msg)?;
        Ok(cells.into_iter().map(f64::to_bits).collect())
    }
}

/// The codec of a message's one unnamed field: it travels flat, beside
/// the message's tag, which is the key it gets.
pub struct Flat;

/// A declared object's fields are the message's.
impl<T: Fields> Field<T> for Flat {
    fn put(v: &T, _: &str, out: &mut Out) {
        v.put_fields(out);
    }

    fn get(_: &str, msg: &mut In) -> Result<T, String> {
        T::get_fields(msg)
    }
}

/// A document's members are the message's, but for the tag.
impl Field<Json> for Flat {
    fn put(v: &Json, tag: &str, out: &mut Out) {
        for (name, member) in v.members().filter(|(name, _)| *name != tag) {
            let name = escape(name);
            member.render(out.key(&name[1..name.len() - 1]));
        }
    }

    fn get(tag: &str, msg: &mut In) -> Result<Json, String> {
        let members = msg.head.members().filter(|(name, _)| *name != tag);
        Ok(members.map(|(k, v)| (k.clone(), v.clone())).collect())
    }
}

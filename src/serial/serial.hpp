#pragma once

#include <any>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/data.hpp"
#include "io/stream.hpp"
#include "support/error.hpp"

/// Object serialization, modeled on Java Object Serialization.
///
/// The paper distributes live process graphs by serializing Process
/// objects; the channel endpoints they reference are serialized along with
/// them, and those endpoints' writeReplace/readResolve hooks are where
/// network connections get established automatically (Sections 4.2/4.3).
/// This module supplies the same machinery for C++:
///
///  * Serializable     -- base class with write_fields + the two hooks;
///  * TypeRegistry     -- name -> factory map.  Where the JVM downloads
///                        bytecode via the RMI codebase, a C++ node instead
///                        links the type and registers it by name (see
///                        DESIGN.md, substitutions);
///  * ObjectOutputStream / ObjectInputStream -- graph writer/reader with
///                        back-references so shared objects stay shared.
namespace dpn::serial {

class ObjectOutputStream;
class ObjectInputStream;

class Serializable {
 public:
  virtual ~Serializable() = default;

  /// Registered type name; must match a TypeRegistry entry on every node
  /// that may deserialize this object.
  virtual std::string type_name() const = 0;

  /// Serializes this object's fields (primitives and nested objects).
  virtual void write_fields(ObjectOutputStream& out) const = 0;

  /// Called before serialization; a non-null result is serialized in this
  /// object's place.  The distribution machinery uses this to replace a
  /// live local channel endpoint with a network stub -- with the side
  /// effect of opening a listening socket (paper Section 4.2).
  virtual std::shared_ptr<Serializable> write_replace(ObjectOutputStream&) {
    return nullptr;
  }

  /// Called after deserialization; a non-null result replaces this object.
  /// Network stubs use this to dial back and become live endpoints.
  virtual std::shared_ptr<Serializable> read_resolve(ObjectInputStream&) {
    return nullptr;
  }
};

using Factory =
    std::function<std::shared_ptr<Serializable>(ObjectInputStream&)>;

class TypeRegistry {
 public:
  static TypeRegistry& global();

  /// Registers a factory under `name`; re-registration of the same name is
  /// an error (two types colliding on a wire name would corrupt graphs).
  void register_factory(const std::string& name, Factory factory);

  bool contains(const std::string& name) const;
  const Factory& factory(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Factory> factories_;
};

/// Registers T by calling `T::read_object(ObjectInputStream&)`.
/// Use at namespace scope in the type's .cpp:
///   const bool registered = register_type<Foo>("dpn.Foo");
template <typename T>
bool register_type(const std::string& name) {
  TypeRegistry::global().register_factory(
      name, [](ObjectInputStream& in) -> std::shared_ptr<Serializable> {
        return T::read_object(in);
      });
  return true;
}

/// Writes an object graph to an underlying OutputStream.  Handles are
/// assigned in first-serialization order; a repeated reference is written
/// as a back-reference so object identity survives the round trip.
class ObjectOutputStream {
 public:
  explicit ObjectOutputStream(std::shared_ptr<io::OutputStream> out);

  /// Serializes one object (or nullptr).  Applies write_replace hooks.
  void write_object(const std::shared_ptr<Serializable>& object);

  // Primitive passthroughs for write_fields implementations.
  void write_bool(bool v) { data_.write_bool(v); }
  void write_u8(std::uint8_t v) { data_.write_u8(v); }
  void write_i32(std::int32_t v) { data_.write_i32(v); }
  void write_u32(std::uint32_t v) { data_.write_u32(v); }
  void write_i64(std::int64_t v) { data_.write_i64(v); }
  void write_u64(std::uint64_t v) { data_.write_u64(v); }
  void write_f64(double v) { data_.write_f64(v); }
  void write_varint(std::uint64_t v) { data_.write_varint(v); }
  void write_string(const std::string& s) { data_.write_string(s); }
  void write_bytes(ByteSpan b) { data_.write_bytes(b); }

  /// Per-stream context for serialization hooks (e.g. the dist module
  /// stashes the local node's advertised address here).
  void set_attachment(std::any attachment) {
    attachment_ = std::move(attachment);
  }
  const std::any& attachment() const { return attachment_; }

 private:
  std::shared_ptr<io::OutputStream> out_;
  io::DataOutputStream data_;  // borrows *out_
  std::unordered_map<const Serializable*, std::uint64_t> handles_;
  std::uint64_t next_handle_ = 0;
  // Keeps replaced/original objects alive for the stream's lifetime so
  // handle pointers stay valid.
  std::vector<std::shared_ptr<Serializable>> retained_;
  std::any attachment_;
};

/// Reads an object graph written by ObjectOutputStream.
class ObjectInputStream {
 public:
  explicit ObjectInputStream(std::shared_ptr<io::InputStream> in);

  std::shared_ptr<Serializable> read_object();

  /// Typed convenience; throws SerializationError on type mismatch or null.
  template <typename T>
  std::shared_ptr<T> read_object_as() {
    auto obj = read_object();
    if (!obj) throw SerializationError{"unexpected null object"};
    auto typed = std::dynamic_pointer_cast<T>(obj);
    if (!typed) {
      throw SerializationError{"object of type '" + obj->type_name() +
                               "' is not of the requested type"};
    }
    return typed;
  }

  bool read_bool() { return data_.read_bool(); }
  std::uint8_t read_u8() { return data_.read_u8(); }
  std::int32_t read_i32() { return data_.read_i32(); }
  std::uint32_t read_u32() { return data_.read_u32(); }
  std::int64_t read_i64() { return data_.read_i64(); }
  std::uint64_t read_u64() { return data_.read_u64(); }
  double read_f64() { return data_.read_f64(); }
  std::uint64_t read_varint() { return data_.read_varint(); }
  std::string read_string() { return data_.read_string(); }
  ByteVector read_bytes() { return data_.read_bytes(); }

  void set_attachment(std::any attachment) {
    attachment_ = std::move(attachment);
  }
  const std::any& attachment() const { return attachment_; }

 private:
  std::shared_ptr<io::InputStream> in_;
  io::DataInputStream data_;  // borrows *in_
  std::vector<std::shared_ptr<Serializable>> objects_;  // handle -> object
  std::any attachment_;
};

/// Serializes a single object graph to bytes (no attachment).
ByteVector to_bytes(const std::shared_ptr<Serializable>& object);

/// Deserializes a single object graph from bytes.
std::shared_ptr<Serializable> from_bytes(ByteSpan bytes);

template <typename T>
std::shared_ptr<T> from_bytes_as(ByteSpan bytes) {
  auto obj = from_bytes(bytes);
  if (!obj) throw SerializationError{"unexpected null object"};
  auto typed = std::dynamic_pointer_cast<T>(obj);
  if (!typed) {
    throw SerializationError{"object of type '" + obj->type_name() +
                             "' is not of the requested type"};
  }
  return typed;
}

}  // namespace dpn::serial

#include "serial/serial.hpp"

#include <mutex>

#include "io/memory.hpp"

namespace dpn::serial {

namespace {
// Wire tags for write_object / read_object.
constexpr std::uint8_t kTagNull = 0;
constexpr std::uint8_t kTagReference = 1;
constexpr std::uint8_t kTagObject = 2;
}  // namespace

TypeRegistry& TypeRegistry::global() {
  static TypeRegistry* registry = new TypeRegistry;  // immortal
  return *registry;
}

void TypeRegistry::register_factory(const std::string& name, Factory factory) {
  std::scoped_lock lock{mutex_};
  const auto [it, inserted] = factories_.emplace(name, std::move(factory));
  (void)it;
  if (!inserted) {
    throw UsageError{"serializable type '" + name + "' registered twice"};
  }
}

bool TypeRegistry::contains(const std::string& name) const {
  std::scoped_lock lock{mutex_};
  return factories_.count(name) > 0;
}

const Factory& TypeRegistry::factory(const std::string& name) const {
  std::scoped_lock lock{mutex_};
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw SerializationError{
        "unknown serializable type '" + name +
        "' (the receiving node must link and register this type)"};
  }
  return it->second;
}

std::vector<std::string> TypeRegistry::names() const {
  std::scoped_lock lock{mutex_};
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

ObjectOutputStream::ObjectOutputStream(std::shared_ptr<io::OutputStream> out)
    : out_(std::move(out)), data_(*out_) {}

void ObjectOutputStream::write_object(
    const std::shared_ptr<Serializable>& object) {
  if (!object) {
    data_.write_u8(kTagNull);
    return;
  }
  if (const auto it = handles_.find(object.get()); it != handles_.end()) {
    data_.write_u8(kTagReference);
    data_.write_varint(it->second);
    return;
  }
  // Apply write_replace to a fixpoint (bounded, as in Java, to catch
  // accidental replacement cycles).
  std::shared_ptr<Serializable> actual = object;
  for (int depth = 0; depth < 8; ++depth) {
    auto replacement = actual->write_replace(*this);
    if (!replacement || replacement == actual) break;
    actual = std::move(replacement);
  }
  if (actual != object) {
    if (const auto it = handles_.find(actual.get()); it != handles_.end()) {
      handles_.emplace(object.get(), it->second);
      retained_.push_back(object);
      data_.write_u8(kTagReference);
      data_.write_varint(it->second);
      return;
    }
  }
  const std::uint64_t handle = next_handle_++;
  handles_.emplace(object.get(), handle);
  retained_.push_back(object);
  if (actual != object) {
    handles_.emplace(actual.get(), handle);
    retained_.push_back(actual);
  }
  data_.write_u8(kTagObject);
  data_.write_string(actual->type_name());
  actual->write_fields(*this);
}

ObjectInputStream::ObjectInputStream(std::shared_ptr<io::InputStream> in)
    : in_(std::move(in)), data_(*in_) {}

std::shared_ptr<Serializable> ObjectInputStream::read_object() {
  const std::uint8_t tag = data_.read_u8();
  switch (tag) {
    case kTagNull:
      return nullptr;
    case kTagReference: {
      const std::uint64_t handle = data_.read_varint();
      if (handle >= objects_.size()) {
        throw SerializationError{"back-reference to unknown handle " +
                                 std::to_string(handle)};
      }
      auto object = objects_[handle];
      if (!object) {
        throw SerializationError{
            "circular object reference (handle " + std::to_string(handle) +
            " referenced while still being constructed)"};
      }
      return object;
    }
    case kTagObject: {
      const std::string name = data_.read_string();
      const Factory& factory = TypeRegistry::global().factory(name);
      // Reserve the handle slot before reading fields so nested objects
      // get the same numbering the writer used.
      const std::size_t slot = objects_.size();
      objects_.push_back(nullptr);
      auto object = factory(*this);
      if (!object) {
        throw SerializationError{"factory for '" + name + "' returned null"};
      }
      if (auto resolved = object->read_resolve(*this)) object = resolved;
      objects_[slot] = object;
      return object;
    }
    default:
      throw SerializationError{"corrupt object stream: bad tag " +
                               std::to_string(tag)};
  }
}

ByteVector to_bytes(const std::shared_ptr<Serializable>& object) {
  auto sink = std::make_shared<io::MemoryOutputStream>();
  ObjectOutputStream out{sink};
  out.write_object(object);
  return sink->take();
}

std::shared_ptr<Serializable> from_bytes(ByteSpan bytes) {
  auto source =
      std::make_shared<io::MemoryInputStream>(ByteVector{bytes.begin(), bytes.end()});
  ObjectInputStream in{source};
  return in.read_object();
}

}  // namespace dpn::serial

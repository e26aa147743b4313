#include "rmi/registry.hpp"

#include <memory>

#include "io/data.hpp"
#include "support/log.hpp"

namespace dpn::rmi {
namespace {

enum class Op : std::uint8_t {
  kRegister = 1,
  kLookup = 2,
  kList = 3,
  kUnregister = 4,
  kReport = 5,  // NACK: client failed to reach a looked-up endpoint
};

}  // namespace

Registry::Registry(std::uint16_t port)
    : listener_(net::listen(port)) {
  acceptor_ = std::jthread{[this] { accept_loop(); }};
}

Registry::~Registry() { stop(); }

void Registry::stop() {
  if (stopping_.exchange(true)) return;
  listener_->close();
  if (acceptor_.joinable()) acceptor_.join();
}

std::vector<std::pair<std::string, Endpoint>> Registry::entries() const {
  std::scoped_lock lock{mutex_};
  return {names_.begin(), names_.end()};
}

void Registry::accept_loop() {
  for (;;) {
    std::shared_ptr<net::Stream> stream;
    try {
      stream = listener_->accept();
    } catch (const NetError&) {
      return;  // stopped
    }
    try {
      handle(std::move(stream));
    } catch (const std::exception& e) {
      log::warn("registry: request failed: ", e.what());
    }
  }
}

void Registry::handle(std::shared_ptr<net::Stream> stream) {
  net::StreamInput source{stream};
  net::StreamOutput sink{stream};
  io::DataInputStream in{source};
  io::DataOutputStream out{sink};
  const auto op = static_cast<Op>(in.read_u8());
  switch (op) {
    case Op::kRegister: {
      const std::string name = in.read_string();
      Endpoint endpoint;
      endpoint.host = in.read_string();
      endpoint.port = in.read_u16();
      {
        std::scoped_lock lock{mutex_};
        names_[name] = endpoint;
        strikes_.erase(name);  // a fresh registration starts clean
      }
      out.write_bool(true);
      break;
    }
    case Op::kLookup: {
      const std::string name = in.read_string();
      std::optional<Endpoint> found;
      {
        std::scoped_lock lock{mutex_};
        if (const auto it = names_.find(name); it != names_.end()) {
          found = it->second;
        }
      }
      out.write_bool(found.has_value());
      if (found) {
        out.write_string(found->host);
        out.write_u16(found->port);
      }
      break;
    }
    case Op::kList: {
      std::vector<std::string> names;
      {
        std::scoped_lock lock{mutex_};
        names.reserve(names_.size());
        for (const auto& [name, endpoint] : names_) names.push_back(name);
      }
      out.write_varint(names.size());
      for (const auto& name : names) out.write_string(name);
      break;
    }
    case Op::kUnregister: {
      const std::string name = in.read_string();
      bool erased = false;
      {
        std::scoped_lock lock{mutex_};
        erased = names_.erase(name) > 0;
        strikes_.erase(name);
      }
      out.write_bool(erased);
      break;
    }
    case Op::kReport: {
      const std::string name = in.read_string();
      Endpoint reported;
      reported.host = in.read_string();
      reported.port = in.read_u16();
      bool evicted = false;
      {
        std::scoped_lock lock{mutex_};
        const auto it = names_.find(name);
        // Only strikes against the *current* endpoint count: a report
        // about an endpoint that has since re-registered elsewhere is
        // about the dead predecessor, not the live entry.
        if (it != names_.end() && it->second.host == reported.host &&
            it->second.port == reported.port) {
          if (++strikes_[name] >= kEvictStrikes) {
            names_.erase(it);
            strikes_.erase(name);
            evicted = true;
          }
        }
      }
      if (evicted) {
        fault::stats().registry_evictions.fetch_add(
            1, std::memory_order_relaxed);
        log::warn("registry: evicted '", name, "' at ", reported.host, ":",
                  reported.port, " after ", kEvictStrikes,
                  " unreachable reports");
      }
      out.write_bool(evicted);
      break;
    }
    default:
      throw IoError{"registry: unknown op"};
  }
}

std::shared_ptr<net::Stream> RegistryClient::connect_() {
  return net::dial_with_retry(host_, port_, retry_);
}

void RegistryClient::register_name(const std::string& name,
                                   const Endpoint& endpoint) {
  auto stream = connect_();
  net::StreamInput source{stream};
  net::StreamOutput sink{stream};
  io::DataInputStream in{source};
  io::DataOutputStream out{sink};
  out.write_u8(static_cast<std::uint8_t>(Op::kRegister));
  out.write_string(name);
  out.write_string(endpoint.host);
  out.write_u16(endpoint.port);
  if (!in.read_bool()) throw NetError{"registry refused registration"};
}

void RegistryClient::unregister_name(const std::string& name) {
  auto stream = connect_();
  net::StreamInput source{stream};
  net::StreamOutput sink{stream};
  io::DataInputStream in{source};
  io::DataOutputStream out{sink};
  out.write_u8(static_cast<std::uint8_t>(Op::kUnregister));
  out.write_string(name);
  in.read_bool();
}

std::optional<Endpoint> RegistryClient::lookup(const std::string& name) {
  auto stream = connect_();
  net::StreamInput source{stream};
  net::StreamOutput sink{stream};
  io::DataInputStream in{source};
  io::DataOutputStream out{sink};
  out.write_u8(static_cast<std::uint8_t>(Op::kLookup));
  out.write_string(name);
  if (!in.read_bool()) return std::nullopt;
  Endpoint endpoint;
  endpoint.host = in.read_string();
  endpoint.port = in.read_u16();
  return endpoint;
}

std::vector<std::string> RegistryClient::list() {
  auto stream = connect_();
  net::StreamInput source{stream};
  net::StreamOutput sink{stream};
  io::DataInputStream in{source};
  io::DataOutputStream out{sink};
  out.write_u8(static_cast<std::uint8_t>(Op::kList));
  const std::uint64_t n = in.read_varint();
  std::vector<std::string> names;
  names.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) names.push_back(in.read_string());
  return names;
}

bool RegistryClient::report_unreachable(const std::string& name,
                                        const Endpoint& endpoint) {
  auto stream = connect_();
  net::StreamInput source{stream};
  net::StreamOutput sink{stream};
  io::DataInputStream in{source};
  io::DataOutputStream out{sink};
  out.write_u8(static_cast<std::uint8_t>(Op::kReport));
  out.write_string(name);
  out.write_string(endpoint.host);
  out.write_u16(endpoint.port);
  return in.read_bool();
}

}  // namespace dpn::rmi

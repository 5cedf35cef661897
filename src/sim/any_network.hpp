// AnyNetwork: closed-set, virtual-free dispatch over every topology the
// simulator serves.
//
// A std::variant, not a virtual interface: run_trace visits the variant
// ONCE and then runs a monomorphic serve loop on the concrete type, so the
// hot path compiles down to direct calls into the tree engines, with no
// indirect call (and no lost inlining) per request. A new topology joins
// the serving paths by becoming an alternative here.
#pragma once

#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "sim/network.hpp"
#include "sim/sharded_network.hpp"

namespace san {

class AnyNetwork {
 public:
  using Variant =
      std::variant<StaticTreeNetwork, KArySplayNetwork, CentroidSplayNetwork,
                   BinarySplayNetwork, ShardedNetwork>;

  /// Converting constructor from any alternative (a concrete network by
  /// value).
  template <typename T,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<T>, AnyNetwork> &&
                std::is_constructible_v<Variant, T&&>>>
  AnyNetwork(T&& net) : v_(std::forward<T>(net)) {}  // NOLINT(runtime/explicit)

  /// One-shot dispatch to the concrete type — what run_trace uses to hoist
  /// the variant branch out of the serve loop.
  template <typename F>
  decltype(auto) visit(F&& f) {
    return std::visit(std::forward<F>(f), v_);
  }
  template <typename F>
  decltype(auto) visit(F&& f) const {
    return std::visit(std::forward<F>(f), v_);
  }

  ServeResult serve(NodeId u, NodeId v) {
    return visit([&](auto& net) { return net.serve(u, v); });
  }
  int size() const {
    return visit([](const auto& net) { return net.size(); });
  }
  std::string name() const {
    return visit([](const auto& net) { return net.name(); });
  }

  /// Concrete-type access (nullptr when another alternative is held).
  template <typename T>
  T* get_if() {
    return std::get_if<T>(&v_);
  }
  template <typename T>
  const T* get_if() const {
    return std::get_if<T>(&v_);
  }

 private:
  Variant v_;
};

}  // namespace san

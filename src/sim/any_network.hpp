// AnyNetwork: closed-set, virtual-free dispatch over every topology the
// evaluation compares: a static tree (sim/network.hpp), and the k-ary,
// (k+1)-, classic and sharded SplayNet engines, held as they are.
//
// A std::variant, not a virtual interface: run_trace visits the variant
// ONCE and then runs a monomorphic serve loop on the concrete type, so the
// hot path compiles down to direct calls into the tree engines, with no
// indirect call (and no lost inlining) per request. There is deliberately
// no per-request AnyNetwork::serve.
#pragma once

#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/binary_splaynet.hpp"
#include "sim/network.hpp"
#include "sim/sharded_network.hpp"

namespace san {

class AnyNetwork {
 public:
  using Variant = std::variant<StaticTreeNetwork, KArySplayNet,
                               CentroidSplayNet, BinarySplayNet,
                               ShardedNetwork>;

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

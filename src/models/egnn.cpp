#include "models/egnn.hpp"

#include "core/graph_ops.hpp"
#include "core/macros.hpp"
#include "core/ops.hpp"

namespace matsci::models {

EGCL::EGCL(const EGNNConfig& cfg, core::RngEngine& rng) : cfg_(cfg) {
  const std::int64_t h = cfg.hidden_dim;
  // φ_e: (h_i, h_j, d²) -> message.
  edge_mlp_ = register_module(
      "edge_mlp",
      std::make_shared<nn::MLP>(std::vector<std::int64_t>{2 * h + 1, h, h},
                                cfg.activation, rng,
                                /*activate_last=*/true));
  // φ_x: message -> scalar coordinate gate (narrow per App. A: width 64).
  // Omitted entirely when this layer never refines coordinates, so no
  // parameter sits in the tree without receiving gradient.
  if (cfg.update_coords) {
    coord_mlp_ = register_module(
        "coord_mlp",
        std::make_shared<nn::MLP>(
            std::vector<std::int64_t>{h, cfg.pos_hidden, 1}, cfg.activation,
            rng));
  }
  // φ_h: (h_i, aggregated message) -> update.
  node_mlp_ = register_module(
      "node_mlp",
      std::make_shared<nn::MLP>(std::vector<std::int64_t>{2 * h, h, h},
                                cfg.activation, rng));
}

EGCL::NodeState EGCL::forward(const NodeState& in,
                              const graph::BatchedGraph& g) const {
  MATSCI_CHECK(in.h.size(0) == g.num_nodes && in.x.size(0) == g.num_nodes,
               "EGCL: state/topology node count mismatch");
  const std::int64_t n = g.num_nodes;

  // Edge-wise geometry: i = dst (receiver), j = src (sender).
  core::Tensor x_i = core::gather_rows(in.x, g.dst);
  core::Tensor x_j = core::gather_rows(in.x, g.src);
  core::Tensor diff = core::sub(x_i, x_j);           // [E, 3]
  core::Tensor d2 = core::row_sq_norm(diff);         // [E, 1]

  // φ_e's first Linear on (h_i, h_j, d²), with its GEMMs on node rows.
  const nn::Linear& first = edge_mlp_->layer(0);
  core::Tensor m = edge_mlp_->forward_from_first(core::edge_concat_linear(
      in.h, d2, first.weight(), first.bias(), g.dst, g.src));

  NodeState out;
  if (coord_mlp_ != nullptr) {
    // Eq. 2: mean-normalized sum keeps updates size-independent.
    core::Tensor gate = coord_mlp_->forward(m);      // [E, 1]
    core::Tensor weighted = core::mul(diff, gate);   // col-broadcast
    core::Tensor delta = core::segment_mean(weighted, g.dst, n);
    out.x = core::add(in.x, delta);
  } else {
    out.x = in.x;
  }

  core::Tensor agg = core::segment_sum(m, g.dst, n);  // [N, hidden]
  core::Tensor update =
      node_mlp_->forward(core::concat_cols({in.h, agg}));
  out.h = cfg_.residual ? core::add(in.h, update) : update;
  return out;
}

EGNN::EGNN(EGNNConfig cfg, core::RngEngine& rng) : cfg_(cfg) {
  MATSCI_CHECK(cfg.num_layers >= 1, "EGNN needs at least one layer");
  species_embedding_ = register_module(
      "species_embedding",
      std::make_shared<nn::Embedding>(cfg.max_species, cfg.hidden_dim, rng));
  for (std::int64_t l = 0; l < cfg.num_layers; ++l) {
    // The final layer's refined coordinates would never be read, so it
    // is built without a coordinate MLP.
    EGNNConfig layer_cfg = cfg;
    if (l + 1 == cfg.num_layers) layer_cfg.update_coords = false;
    layers_.push_back(register_module(
        "layer" + std::to_string(l), std::make_shared<EGCL>(layer_cfg, rng)));
  }
}

core::Tensor EGNN::node_embeddings(const data::Batch& batch) const {
  MATSCI_CHECK(static_cast<std::int64_t>(batch.species.size()) ==
                   batch.topology.num_nodes,
               "batch species/topology mismatch");
  for (const std::int64_t z : batch.species) {
    MATSCI_CHECK(z >= 0 && z < cfg_.max_species,
                 "species id " << z << " outside embedding table");
  }
  EGCL::NodeState state;
  state.h = species_embedding_->forward(batch.species);
  // Coordinates enter as constants; gradients flow to the coordinate
  // MLPs through the distance features, not into the data.
  state.x = batch.coords;
  for (const auto& layer : layers_) {
    state = layer->forward(state, batch.topology);
  }
  return state.h;
}

core::Tensor EGNN::encode(const data::Batch& batch) const {
  core::Tensor h = node_embeddings(batch);
  // Size-extensive readout (paper App. A): sum over nodes per graph.
  return core::segment_sum(h, batch.topology.node_graph,
                           batch.topology.num_graphs);
}

}  // namespace matsci::models

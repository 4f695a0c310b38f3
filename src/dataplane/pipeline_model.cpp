#include "dataplane/pipeline_model.hpp"

#include <algorithm>
#include <utility>

namespace p4auth::dataplane {

namespace {

ModelNode register_node(ModelNodeKind kind, RegisterShape shape, int accesses) {
  ModelNode node;
  node.kind = kind;
  node.object = shape.name;
  node.reg = std::move(shape);
  node.register_cost = accesses;
  return node;
}

}  // namespace

std::string_view model_node_kind_name(ModelNodeKind kind) noexcept {
  switch (kind) {
    case ModelNodeKind::Parse:
      return "parse";
    case ModelNodeKind::Table:
      return "table";
    case ModelNodeKind::RegisterRead:
      return "register_read";
    case ModelNodeKind::RegisterWrite:
      return "register_write";
    case ModelNodeKind::DigestVerify:
      return "digest_verify";
    case ModelNodeKind::DigestCompute:
      return "digest_compute";
    case ModelNodeKind::Emit:
      return "emit";
    case ModelNodeKind::Punt:
      return "punt";
    case ModelNodeKind::Drop:
      return "drop";
    case ModelNodeKind::Consume:
      return "consume";
  }
  return "unknown";
}

std::size_t PipelineModel::add(ModelNode node) {
  nodes.push_back(std::move(node));
  return nodes.size() - 1;
}

std::size_t PipelineModel::then(std::size_t from, ModelNode node,
                                std::string label,
                                std::vector<ModelCond> when) {
  const std::size_t idx = add(std::move(node));
  branch(from, idx, std::move(label), std::move(when));
  return idx;
}

void PipelineModel::branch(std::size_t from, std::size_t to, std::string label,
                           std::vector<ModelCond> when) {
  nodes[from].next.push_back(
      ModelBranch{to, std::move(label), std::move(when)});
}

std::size_t PipelineModel::splice(const PipelineModel& inner) {
  const std::size_t offset = nodes.size();
  for (const ModelNode& node : inner.nodes) {
    ModelNode copy = node;
    for (ModelBranch& branch : copy.next) {
      branch.target += offset;
    }
    nodes.push_back(std::move(copy));
  }
  hash_uses.insert(hash_uses.end(), inner.hash_uses.begin(), inner.hash_uses.end());
  header_phv_bits += inner.header_phv_bits;
  metadata_phv_bits += inner.metadata_phv_bits;
  return offset;
}

ProgramDeclaration PipelineModel::declaration() const {
  const auto add_once = [](auto& shapes, const auto& shape) {
    if (std::find(shapes.begin(), shapes.end(), shape) == shapes.end()) {
      shapes.push_back(shape);
    }
  };
  ProgramDeclaration decl;
  decl.name = name;
  for (const ModelNode& node : nodes) {
    if (node.kind == ModelNodeKind::Table) add_once(decl.tables, node.table);
    if (node.kind == ModelNodeKind::RegisterRead ||
        node.kind == ModelNodeKind::RegisterWrite) {
      add_once(decl.registers, node.reg);
    }
  }
  decl.hash_uses = hash_uses;
  decl.header_phv_bits = header_phv_bits;
  decl.metadata_phv_bits = metadata_phv_bits;
  return decl;
}

ModelNode PipelineModel::parse(std::string object) {
  ModelNode node;
  node.kind = ModelNodeKind::Parse;
  node.object = std::move(object);
  return node;
}

ModelNode PipelineModel::table(TableShape shape) {
  ModelNode node;
  node.kind = ModelNodeKind::Table;
  node.object = shape.name;
  node.table = std::move(shape);
  node.stage_cost = 1;
  return node;
}

ModelNode PipelineModel::reg_read(const RegisterArray& reg, int accesses) {
  return reg_read(RegisterShape::of(reg), accesses);
}

ModelNode PipelineModel::reg_write(const RegisterArray& reg, int accesses) {
  return reg_write(RegisterShape::of(reg), accesses);
}

ModelNode PipelineModel::reg_read(RegisterShape shape, int accesses) {
  return register_node(ModelNodeKind::RegisterRead, std::move(shape), accesses);
}

ModelNode PipelineModel::reg_write(RegisterShape shape, int accesses) {
  return register_node(ModelNodeKind::RegisterWrite, std::move(shape), accesses);
}

ModelNode PipelineModel::verify(std::string label) {
  ModelNode node;
  node.kind = ModelNodeKind::DigestVerify;
  node.object = std::move(label);
  node.stage_cost = 1;
  node.hash_cost = 1;
  return node;
}

ModelNode PipelineModel::digest(std::string label) {
  ModelNode node;
  node.kind = ModelNodeKind::DigestCompute;
  node.object = std::move(label);
  node.stage_cost = 1;
  node.hash_cost = 1;
  return node;
}

ModelNode PipelineModel::emit(std::string port_class, bool protected_port,
                              bool multi) {
  ModelNode node;
  node.kind = ModelNodeKind::Emit;
  node.object = std::move(port_class);
  node.protected_port = protected_port;
  node.multi = multi;
  return node;
}

ModelNode PipelineModel::punt(bool multi) {
  ModelNode node;
  node.kind = ModelNodeKind::Punt;
  node.object = "cpu";
  node.multi = multi;
  return node;
}

ModelNode PipelineModel::drop() {
  ModelNode node;
  node.kind = ModelNodeKind::Drop;
  return node;
}

ModelNode PipelineModel::consume() {
  ModelNode node;
  node.kind = ModelNodeKind::Consume;
  return node;
}

}  // namespace p4auth::dataplane

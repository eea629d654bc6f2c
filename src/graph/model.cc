#include "graph/model.h"

#include <cmath>

#include "common/random.h"

namespace relserve {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kInput:
      return "Input";
    case OpKind::kMatMul:
      return "MatMul";
    case OpKind::kBiasAdd:
      return "BiasAdd";
    case OpKind::kRelu:
      return "Relu";
    case OpKind::kSoftmax:
      return "Softmax";
    case OpKind::kConv2D:
      return "Conv2D";
    case OpKind::kMaxPool:
      return "MaxPool";
    case OpKind::kFlatten:
      return "Flatten";
  }
  return "?";
}

int Model::AddNode(OpKind kind, std::string weight_name, int64_t stride,
                   int input) {
  Node node;
  node.id = static_cast<int>(nodes_.size());
  node.kind = kind;
  node.input = (input == -2) ? node.id - 1 : input;
  node.weight_name = std::move(weight_name);
  node.stride = stride;
  node.name = std::string(OpKindName(kind)) + "_" +
              std::to_string(node.id);
  RELSERVE_CHECK(kind != OpKind::kInput || nodes_.empty())
      << "Input must be the first node";
  RELSERVE_CHECK(kind == OpKind::kInput || node.input >= 0)
      << "non-input node needs a producer";
  nodes_.push_back(node);
  return node.id;
}

Status Model::AddWeight(const std::string& name, Tensor weight) {
  if (weights_.count(name) > 0) {
    return Status::AlreadyExists("weight '" + name + "'");
  }
  weights_.emplace(name, std::move(weight));
  return Status::OK();
}

Result<const Tensor*> Model::GetWeight(const std::string& name) const {
  auto it = weights_.find(name);
  if (it == weights_.end()) {
    return Status::NotFound("weight '" + name + "'");
  }
  return &it->second;
}

Result<Tensor*> Model::GetMutableWeight(const std::string& name) {
  auto it = weights_.find(name);
  if (it == weights_.end()) {
    return Status::NotFound("weight '" + name + "'");
  }
  return &it->second;
}

int64_t Model::TotalWeightBytes() const {
  int64_t total = 0;
  for (const auto& [name, w] : weights_) total += w.ByteSize();
  return total;
}

Result<std::vector<Shape>> Model::InferShapes(int64_t batch_size) const {
  std::vector<Shape> shapes(nodes_.size());
  for (const Node& node : nodes_) {
    switch (node.kind) {
      case OpKind::kInput: {
        std::vector<int64_t> dims = {batch_size};
        for (int64_t d : sample_shape_.dims()) dims.push_back(d);
        shapes[node.id] = Shape(std::move(dims));
        break;
      }
      case OpKind::kMatMul: {
        const Shape& in = shapes[node.input];
        if (in.ndim() != 2) {
          return Status::InvalidArgument("MatMul input must be rank-2");
        }
        RELSERVE_ASSIGN_OR_RETURN(const Tensor* w,
                                  GetWeight(node.weight_name));
        if (w->shape().ndim() != 2 ||
            w->shape().dim(1) != in.dim(1)) {
          return Status::InvalidArgument(
              "MatMul weight " + w->shape().ToString() +
              " incompatible with input " + in.ToString());
        }
        shapes[node.id] = Shape{in.dim(0), w->shape().dim(0)};
        break;
      }
      case OpKind::kBiasAdd:
      case OpKind::kRelu:
      case OpKind::kSoftmax:
        shapes[node.id] = shapes[node.input];
        break;
      case OpKind::kConv2D: {
        const Shape& in = shapes[node.input];
        if (in.ndim() != 4) {
          return Status::InvalidArgument("Conv2D input must be rank-4");
        }
        RELSERVE_ASSIGN_OR_RETURN(const Tensor* w,
                                  GetWeight(node.weight_name));
        const int64_t out_h =
            (in.dim(1) - w->shape().dim(1)) / node.stride + 1;
        const int64_t out_w =
            (in.dim(2) - w->shape().dim(2)) / node.stride + 1;
        shapes[node.id] =
            Shape{in.dim(0), out_h, out_w, w->shape().dim(0)};
        break;
      }
      case OpKind::kMaxPool: {
        const Shape& in = shapes[node.input];
        if (in.ndim() != 4) {
          return Status::InvalidArgument("MaxPool input must be rank-4");
        }
        shapes[node.id] =
            Shape{in.dim(0), in.dim(1) / 2, in.dim(2) / 2, in.dim(3)};
        break;
      }
      case OpKind::kFlatten: {
        const Shape& in = shapes[node.input];
        shapes[node.id] =
            Shape{in.dim(0), in.NumElements() / in.dim(0)};
        break;
      }
    }
  }
  return shapes;
}

Result<double> Model::EstimateFlops(int64_t batch_size) const {
  double flops = 0.0;
  for (const Node& node : nodes_) {
    RELSERVE_ASSIGN_OR_RETURN(double node_flops,
                              EstimateNodeFlops(node.id, batch_size));
    flops += node_flops;
  }
  return flops;
}

Result<double> Model::EstimateNodeFlops(int node_id,
                                        int64_t batch_size) const {
  RELSERVE_ASSIGN_OR_RETURN(std::vector<Shape> shapes,
                            InferShapes(batch_size));
  const Node& node = nodes_[node_id];
  switch (node.kind) {
    case OpKind::kMatMul: {
      RELSERVE_ASSIGN_OR_RETURN(const Tensor* w,
                                GetWeight(node.weight_name));
      const Shape& in = shapes[node.input];
      return 2.0 * in.dim(0) * in.dim(1) * w->shape().dim(0);
    }
    case OpKind::kConv2D: {
      RELSERVE_ASSIGN_OR_RETURN(const Tensor* w,
                                GetWeight(node.weight_name));
      const Shape& out = shapes[node.id];
      // Each output element is a dot product over kh*kw*in_c.
      return 2.0 * out.NumElements() * w->shape().dim(1) *
             w->shape().dim(2) * w->shape().dim(3);
    }
    default:
      return static_cast<double>(shapes[node.id].NumElements());
  }
}

std::string Model::ToString() const {
  std::string out = "Model " + name_ + " (sample " +
                    sample_shape_.ToString() + ")\n";
  for (const Node& node : nodes_) {
    out += "  #" + std::to_string(node.id) + " " + OpKindName(node.kind);
    if (!node.weight_name.empty()) {
      out += " [" + node.weight_name;
      auto w = GetWeight(node.weight_name);
      if (w.ok()) {
        out += " ";
        out += (*w)->shape().ToString();
      }
      out += "]";
    }
    if (node.input >= 0) out += " <- #" + std::to_string(node.input);
    out += "\n";
  }
  return out;
}

namespace {

Result<Tensor> RandomWeight(Shape shape, int64_t fan_in, Rng* rng,
                            MemoryTracker* tracker) {
  RELSERVE_ASSIGN_OR_RETURN(Tensor w,
                            Tensor::Create(std::move(shape), tracker));
  const float scale = 1.0f / std::sqrt(static_cast<float>(fan_in));
  float* data = w.data();
  for (int64_t i = 0; i < w.NumElements(); ++i) {
    data[i] = rng->Normal(0.0f, scale);
  }
  return w;
}

}  // namespace

Result<Model> BuildFFNN(const std::string& name,
                        const std::vector<int64_t>& dims, uint64_t seed,
                        MemoryTracker* tracker) {
  if (dims.size() < 2) {
    return Status::InvalidArgument("FFNN needs at least in/out dims");
  }
  Rng rng(seed);
  Model model(name, Shape{dims[0]});
  model.AddNode(OpKind::kInput);
  for (size_t layer = 0; layer + 1 < dims.size(); ++layer) {
    const int64_t in_dim = dims[layer];
    const int64_t out_dim = dims[layer + 1];
    std::string w_name = "w";
    w_name += std::to_string(layer);
    std::string b_name = "b";
    b_name += std::to_string(layer);
    RELSERVE_ASSIGN_OR_RETURN(
        Tensor w,
        RandomWeight(Shape{out_dim, in_dim}, in_dim, &rng, tracker));
    RELSERVE_ASSIGN_OR_RETURN(
        Tensor b, RandomWeight(Shape{out_dim}, in_dim, &rng, tracker));
    RELSERVE_RETURN_NOT_OK(model.AddWeight(w_name, std::move(w)));
    RELSERVE_RETURN_NOT_OK(model.AddWeight(b_name, std::move(b)));
    model.AddNode(OpKind::kMatMul, w_name);
    model.AddNode(OpKind::kBiasAdd, b_name);
    if (layer + 2 < dims.size()) {
      model.AddNode(OpKind::kRelu);
    } else {
      model.AddNode(OpKind::kSoftmax);
    }
  }
  return model;
}

Result<Model> BuildCNN(const std::string& name, Shape sample_shape,
                       const std::vector<ConvLayerSpec>& conv_layers,
                       const std::vector<int64_t>& fc_dims,
                       uint64_t seed, MemoryTracker* tracker) {
  if (sample_shape.ndim() != 3) {
    return Status::InvalidArgument("CNN sample shape must be [h, w, c]");
  }
  Rng rng(seed);
  Model model(name, sample_shape);
  model.AddNode(OpKind::kInput);
  int64_t h = sample_shape.dim(0);
  int64_t w = sample_shape.dim(1);
  int64_t c = sample_shape.dim(2);
  for (size_t layer = 0; layer < conv_layers.size(); ++layer) {
    const ConvLayerSpec& spec = conv_layers[layer];
    const std::string k_name = "conv" + std::to_string(layer);
    const int64_t fan_in = spec.kernel_h * spec.kernel_w * c;
    RELSERVE_ASSIGN_OR_RETURN(
        Tensor kernel,
        RandomWeight(Shape{spec.out_channels, spec.kernel_h,
                           spec.kernel_w, c},
                     fan_in, &rng, tracker));
    RELSERVE_RETURN_NOT_OK(model.AddWeight(k_name, std::move(kernel)));
    model.AddNode(OpKind::kConv2D, k_name, spec.stride);
    h = (h - spec.kernel_h) / spec.stride + 1;
    w = (w - spec.kernel_w) / spec.stride + 1;
    c = spec.out_channels;
    if (spec.relu) model.AddNode(OpKind::kRelu);
    if (spec.maxpool) {
      model.AddNode(OpKind::kMaxPool);
      h /= 2;
      w /= 2;
    }
  }
  if (!fc_dims.empty()) {
    model.AddNode(OpKind::kFlatten);
    int64_t in_dim = h * w * c;
    for (size_t layer = 0; layer < fc_dims.size(); ++layer) {
      const int64_t out_dim = fc_dims[layer];
      const std::string w_name = "fc" + std::to_string(layer);
      const std::string b_name = "fcb" + std::to_string(layer);
      RELSERVE_ASSIGN_OR_RETURN(
          Tensor weight,
          RandomWeight(Shape{out_dim, in_dim}, in_dim, &rng, tracker));
      RELSERVE_ASSIGN_OR_RETURN(
          Tensor bias,
          RandomWeight(Shape{out_dim}, in_dim, &rng, tracker));
      RELSERVE_RETURN_NOT_OK(model.AddWeight(w_name, std::move(weight)));
      RELSERVE_RETURN_NOT_OK(model.AddWeight(b_name, std::move(bias)));
      model.AddNode(OpKind::kMatMul, w_name);
      model.AddNode(OpKind::kBiasAdd, b_name);
      if (layer + 1 < fc_dims.size()) {
        model.AddNode(OpKind::kRelu);
      } else {
        model.AddNode(OpKind::kSoftmax);
      }
      in_dim = out_dim;
    }
  }
  return model;
}

}  // namespace relserve

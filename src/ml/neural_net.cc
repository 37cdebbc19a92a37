#include "ml/neural_net.h"

#include <algorithm>
#include <cmath>

#include "ml/common.h"
#include "ml/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace roadmine::ml {

using util::InvalidArgumentError;
using util::Status;

namespace {

double Sigmoid(double z) {
  if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

double NeuralNetClassifier::Forward(
    const std::vector<double>& input,
    std::vector<std::vector<double>>& activations) const {
  activations.resize(layers_.size() + 1);
  activations[0] = input;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const std::vector<double>& prev = activations[l];
    std::vector<double>& next = activations[l + 1];
    next.assign(layer.out, 0.0);
    for (size_t o = 0; o < layer.out; ++o) {
      double z = layer.bias[o];
      const double* w = &layer.weights[o * layer.in];
      for (size_t i = 0; i < layer.in; ++i) z += w[i] * prev[i];
      const bool is_output = (l + 1 == layers_.size());
      next[o] = is_output ? Sigmoid(z) : std::tanh(z);
    }
  }
  return activations.back()[0];
}

Status NeuralNetClassifier::Fit(const data::Dataset& dataset,
                                const std::string& target_column,
                                const std::vector<std::string>& feature_columns,
                                const std::vector<size_t>& rows) {
  ROADMINE_TRACE_SPAN("ml.neural_net.fit");
  obs::ScopedLatency fit_timer(
      obs::MetricsRegistry::Global().GetHistogram("ml.fit_ms"));
  ROADMINE_RETURN_IF_ERROR(CheckFitRows(rows, dataset.num_rows()));
  if (params_.batch_size == 0) return InvalidArgumentError("batch_size == 0");
  auto labels = ExtractBinaryLabels(dataset, target_column);
  if (!labels.ok()) return labels.status();
  ROADMINE_RETURN_IF_ERROR(encoder_.Fit(dataset, feature_columns, rows));
  auto matrix = encoder_.Transform(dataset, rows);
  if (!matrix.ok()) return matrix.status();

  // Topology: input -> hidden... -> 1 sigmoid unit.
  util::Rng rng(params_.seed);
  layers_.clear();
  size_t prev_width = encoder_.feature_dim();
  std::vector<size_t> widths = params_.hidden_layers;
  widths.push_back(1);
  for (size_t width : widths) {
    if (width == 0) return InvalidArgumentError("zero-width layer");
    Layer layer;
    layer.in = prev_width;
    layer.out = width;
    layer.weights.resize(width * prev_width);
    layer.bias.assign(width, 0.0);
    // Xavier/Glorot initialization.
    const double scale =
        std::sqrt(6.0 / static_cast<double>(prev_width + width));
    for (double& w : layer.weights) w = rng.Uniform(-scale, scale);
    layers_.push_back(std::move(layer));
    prev_width = width;
  }

  std::vector<Layer> velocity = layers_;
  for (Layer& v : velocity) {
    std::fill(v.weights.begin(), v.weights.end(), 0.0);
    std::fill(v.bias.begin(), v.bias.end(), 0.0);
  }

  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<std::vector<double>> activations;
  std::vector<std::vector<double>> deltas(layers_.size());
  // Accumulated gradients for the current mini-batch.
  std::vector<Layer> grads = velocity;

  obs::Counter& epoch_counter =
      obs::MetricsRegistry::Global().GetCounter("ml.neural_net.epochs");
  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    epoch_counter.Increment();
    rng.Shuffle(order);
    double loss_sum = 0.0;
    size_t batch_fill = 0;

    auto apply_batch = [&](size_t batch_n) {
      if (batch_n == 0) return;
      const double inv_b = 1.0 / static_cast<double>(batch_n);
      for (size_t l = 0; l < layers_.size(); ++l) {
        Layer& layer = layers_[l];
        Layer& vel = velocity[l];
        Layer& grad = grads[l];
        for (size_t j = 0; j < layer.weights.size(); ++j) {
          const double g =
              grad.weights[j] * inv_b + params_.l2 * layer.weights[j];
          vel.weights[j] =
              params_.momentum * vel.weights[j] - params_.learning_rate * g;
          layer.weights[j] += vel.weights[j];
          grad.weights[j] = 0.0;
        }
        for (size_t j = 0; j < layer.bias.size(); ++j) {
          const double g = grad.bias[j] * inv_b;
          vel.bias[j] =
              params_.momentum * vel.bias[j] - params_.learning_rate * g;
          layer.bias[j] += vel.bias[j];
          grad.bias[j] = 0.0;
        }
      }
    };

    for (size_t idx : order) {
      const std::vector<double>& x = (*matrix)[idx];
      const double y = static_cast<double>((*labels)[rows[idx]]);
      const double p = Forward(x, activations);
      loss_sum += -(y * std::log(std::max(p, 1e-12)) +
                    (1.0 - y) * std::log(std::max(1.0 - p, 1e-12)));

      // Backward pass. Output delta for sigmoid + cross-entropy is (p - y).
      deltas.back().assign(1, p - y);
      for (size_t l = layers_.size() - 1; l-- > 0;) {
        const Layer& next_layer = layers_[l + 1];
        const std::vector<double>& next_delta = deltas[l + 1];
        std::vector<double>& delta = deltas[l];
        delta.assign(layers_[l].out, 0.0);
        for (size_t o = 0; o < next_layer.out; ++o) {
          const double* w = &next_layer.weights[o * next_layer.in];
          for (size_t i = 0; i < next_layer.in; ++i) {
            delta[i] += next_delta[o] * w[i];
          }
        }
        // tanh' = 1 - a^2.
        const std::vector<double>& act = activations[l + 1];
        for (size_t i = 0; i < delta.size(); ++i) {
          delta[i] *= 1.0 - act[i] * act[i];
        }
      }
      for (size_t l = 0; l < layers_.size(); ++l) {
        Layer& grad = grads[l];
        const std::vector<double>& input_act = activations[l];
        const std::vector<double>& delta = deltas[l];
        for (size_t o = 0; o < grad.out; ++o) {
          double* gw = &grad.weights[o * grad.in];
          for (size_t i = 0; i < grad.in; ++i) {
            gw[i] += delta[o] * input_act[i];
          }
          grad.bias[o] += delta[o];
        }
      }
      if (++batch_fill == params_.batch_size) {
        apply_batch(batch_fill);
        batch_fill = 0;
      }
    }
    apply_batch(batch_fill);
    final_loss_ = loss_sum / static_cast<double>(rows.size());
  }
  fitted_ = true;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("ml.neural_net.fits").Increment();
  metrics.GetGauge("ml.neural_net.final_loss").Set(final_loss_);
  return Status::Ok();
}

double NeuralNetClassifier::PredictProba(const data::Dataset& dataset,
                                         size_t row) const {
  std::vector<double> x;
  encoder_.EncodeRow(dataset, row, x);
  std::vector<std::vector<double>> activations;
  return Forward(x, activations);
}

int NeuralNetClassifier::Predict(const data::Dataset& dataset, size_t row,
                                 double cutoff) const {
  return PredictProba(dataset, row) >= cutoff ? 1 : 0;
}

util::Result<std::vector<double>> NeuralNetClassifier::PredictBatch(
    const data::Dataset& dataset, const std::vector<size_t>& rows) const {
  if (!fitted_) return util::FailedPreconditionError("model not fitted");
  ROADMINE_RETURN_IF_ERROR(encoder_.CheckSchema(dataset));
  ROADMINE_RETURN_IF_ERROR(CheckRowRange(rows, dataset.num_rows()));
  std::vector<double> probs;
  probs.reserve(rows.size());
  for (size_t r : rows) probs.push_back(PredictProba(dataset, r));
  return probs;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {
constexpr char kSerializationHeader[] = "roadmine-neural-net v1";
}  // namespace

std::string NeuralNetClassifier::Serialize() const {
  // The embedded encoder block comes last: its format is self-terminating,
  // so it can run to end-of-text.
  std::string out = kSerializationHeader;
  out += "\nfinal_loss\t" + SerializeDouble(final_loss_) + "\n";
  out += "layers " + std::to_string(layers_.size()) + "\n";
  for (const Layer& layer : layers_) {
    out += "layer\t" + std::to_string(layer.in) + "\t" +
           std::to_string(layer.out) + "\n";
    for (size_t o = 0; o < layer.out; ++o) {
      out += "wrow";
      const double* w = &layer.weights[o * layer.in];
      for (size_t i = 0; i < layer.in; ++i) {
        out += '\t';
        out += SerializeDouble(w[i]);
      }
      out += "\n";
    }
    out += "bias";
    for (double b : layer.bias) {
      out += '\t';
      out += SerializeDouble(b);
    }
    out += "\n";
  }
  out += "encoder\n";
  out += encoder_.Serialize();
  return out;
}

util::Result<NeuralNetClassifier> NeuralNetClassifier::Deserialize(
    const std::string& text, const data::Dataset& dataset) {
  LineCursor cursor(text);
  const std::string* header = cursor.Next();
  if (header == nullptr || *header != kSerializationHeader) {
    return InvalidArgumentError("bad serialization header");
  }
  NeuralNetClassifier net;

  const std::string* loss_line = cursor.Next();
  if (loss_line == nullptr) return InvalidArgumentError("missing loss line");
  {
    const std::vector<std::string> parts = util::Split(*loss_line, '\t');
    if (parts.size() != 2 || parts[0] != "final_loss" ||
        !util::ParseDouble(parts[1], &net.final_loss_)) {
      return InvalidArgumentError("bad final_loss line");
    }
  }

  auto layer_count = ParseCountLine(cursor, "layers");
  if (!layer_count.ok()) return layer_count.status();
  if (*layer_count == 0) return InvalidArgumentError("network has no layers");
  for (int64_t l = 0; l < *layer_count; ++l) {
    const std::string* line = cursor.Next();
    if (line == nullptr) return InvalidArgumentError("truncated layer list");
    const std::vector<std::string> parts = util::Split(*line, '\t');
    int64_t in = 0, out_width = 0;
    if (parts.size() != 3 || parts[0] != "layer" ||
        !util::ParseInt(parts[1], &in) || in <= 0 ||
        !util::ParseInt(parts[2], &out_width) || out_width <= 0) {
      return InvalidArgumentError("bad layer line: " + *line);
    }
    Layer layer;
    layer.in = static_cast<size_t>(in);
    layer.out = static_cast<size_t>(out_width);
    if (!net.layers_.empty() && layer.in != net.layers_.back().out) {
      return InvalidArgumentError("layer input width does not match the "
                                  "previous layer's output width");
    }
    // Weights grow a checked row at a time: the header's widths alone
    // never size an allocation.
    for (size_t o = 0; o < layer.out; ++o) {
      const std::string* row = cursor.Next();
      if (row == nullptr) return InvalidArgumentError("truncated weight rows");
      const std::vector<std::string> row_parts = util::Split(*row, '\t');
      if (row_parts.size() != 1 + layer.in || row_parts[0] != "wrow") {
        return InvalidArgumentError("bad weight row: " + *row);
      }
      for (size_t i = 0; i < layer.in; ++i) {
        double weight = 0.0;
        if (!util::ParseDouble(row_parts[1 + i], &weight)) {
          return InvalidArgumentError("bad weight value");
        }
        layer.weights.push_back(weight);
      }
    }
    const std::string* bias_line = cursor.Next();
    if (bias_line == nullptr) return InvalidArgumentError("missing bias line");
    const std::vector<std::string> bias_parts = util::Split(*bias_line, '\t');
    if (bias_parts.size() != 1 + layer.out || bias_parts[0] != "bias") {
      return InvalidArgumentError("bad bias line: " + *bias_line);
    }
    layer.bias.resize(layer.out);
    for (size_t o = 0; o < layer.out; ++o) {
      if (!util::ParseDouble(bias_parts[1 + o], &layer.bias[o])) {
        return InvalidArgumentError("bad bias value");
      }
    }
    net.layers_.push_back(std::move(layer));
  }
  if (net.layers_.back().out != 1) {
    return InvalidArgumentError("output layer width must be 1");
  }

  const std::string* marker = cursor.Next();
  if (marker == nullptr || *marker != "encoder") {
    return InvalidArgumentError("missing encoder block");
  }
  auto encoder = data::FeatureEncoder::Deserialize(cursor.Remainder(), dataset);
  if (!encoder.ok()) return encoder.status();
  net.encoder_ = std::move(*encoder);
  if (net.encoder_.feature_dim() != net.layers_.front().in) {
    return InvalidArgumentError("input width does not match encoder width");
  }
  net.fitted_ = true;
  return net;
}

}  // namespace roadmine::ml

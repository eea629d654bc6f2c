#include "relational/expression.h"

#include <cmath>

namespace relserve {

ExprPtr Expression::Column(int index) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = ExprKind::kColumn;
  e->column_index_ = index;
  return e;
}

ExprPtr Expression::Literal(Value v) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expression::Binary(ExprKind kind, ExprPtr left, ExprPtr right) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = kind;
  e->children_ = {std::move(left), std::move(right)};
  return e;
}

ExprPtr Expression::Not(ExprPtr operand) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = ExprKind::kNot;
  e->children_ = {std::move(operand)};
  return e;
}

ExprPtr Expression::AbsDiffLe(ExprPtr left, ExprPtr right,
                              double epsilon) {
  auto e = std::shared_ptr<Expression>(new Expression());
  e->kind_ = ExprKind::kAbsDiffLe;
  e->epsilon_ = epsilon;
  e->children_ = {std::move(left), std::move(right)};
  return e;
}

Result<Value> Expression::Evaluate(const Row& row) const {
  switch (kind_) {
    case ExprKind::kColumn:
      if (column_index_ < 0 || column_index_ >= row.num_values()) {
        return Status::InvalidArgument(
            "column index " + std::to_string(column_index_) +
            " out of range for row of " +
            std::to_string(row.num_values()));
      }
      return row.value(column_index_);
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul: {
      RELSERVE_ASSIGN_OR_RETURN(Value l, children_[0]->Evaluate(row));
      RELSERVE_ASSIGN_OR_RETURN(Value r, children_[1]->Evaluate(row));
      const double a = l.AsNumeric();
      const double b = r.AsNumeric();
      double v = 0.0;
      if (kind_ == ExprKind::kAdd) v = a + b;
      if (kind_ == ExprKind::kSub) v = a - b;
      if (kind_ == ExprKind::kMul) v = a * b;
      return Value(v);
    }
    case ExprKind::kEq: {
      RELSERVE_ASSIGN_OR_RETURN(Value l, children_[0]->Evaluate(row));
      RELSERVE_ASSIGN_OR_RETURN(Value r, children_[1]->Evaluate(row));
      return Value(int64_t{l == r ? 1 : 0});
    }
    case ExprKind::kLt:
    case ExprKind::kLe: {
      RELSERVE_ASSIGN_OR_RETURN(Value l, children_[0]->Evaluate(row));
      RELSERVE_ASSIGN_OR_RETURN(Value r, children_[1]->Evaluate(row));
      const double a = l.AsNumeric();
      const double b = r.AsNumeric();
      const bool v = (kind_ == ExprKind::kLt) ? a < b : a <= b;
      return Value(int64_t{v ? 1 : 0});
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      RELSERVE_ASSIGN_OR_RETURN(bool l, children_[0]->EvaluateBool(row));
      // Short-circuit.
      if (kind_ == ExprKind::kAnd && !l) return Value(int64_t{0});
      if (kind_ == ExprKind::kOr && l) return Value(int64_t{1});
      RELSERVE_ASSIGN_OR_RETURN(bool r, children_[1]->EvaluateBool(row));
      return Value(int64_t{r ? 1 : 0});
    }
    case ExprKind::kNot: {
      RELSERVE_ASSIGN_OR_RETURN(bool v, children_[0]->EvaluateBool(row));
      return Value(int64_t{v ? 0 : 1});
    }
    case ExprKind::kAbsDiffLe: {
      RELSERVE_ASSIGN_OR_RETURN(Value l, children_[0]->Evaluate(row));
      RELSERVE_ASSIGN_OR_RETURN(Value r, children_[1]->Evaluate(row));
      const bool v =
          std::fabs(l.AsNumeric() - r.AsNumeric()) <= epsilon_;
      return Value(int64_t{v ? 1 : 0});
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> Expression::EvaluateBool(const Row& row) const {
  RELSERVE_ASSIGN_OR_RETURN(Value v, Evaluate(row));
  return v.AsNumeric() != 0.0;
}

std::string Expression::ToString() const {
  // "(lhs op rhs)", built by appending: GCC 12 reports a false
  // -Wrestrict on a chained operator+ that starts from a literal.
  auto binary = [this](const char* op) {
    std::string out = "(";
    out += children_[0]->ToString();
    out += op;
    out += children_[1]->ToString();
    out += ")";
    return out;
  };
  switch (kind_) {
    case ExprKind::kColumn: {
      std::string out = "$";
      out += std::to_string(column_index_);
      return out;
    }
    case ExprKind::kLiteral:
      return literal_.ToString();
    case ExprKind::kAdd:
      return binary(" + ");
    case ExprKind::kSub:
      return binary(" - ");
    case ExprKind::kMul:
      return binary(" * ");
    case ExprKind::kEq:
      return binary(" = ");
    case ExprKind::kLt:
      return binary(" < ");
    case ExprKind::kLe:
      return binary(" <= ");
    case ExprKind::kAnd:
      return binary(" AND ");
    case ExprKind::kOr:
      return binary(" OR ");
    case ExprKind::kNot:
      return "(NOT " + children_[0]->ToString() + ")";
    case ExprKind::kAbsDiffLe:
      return "(|" + children_[0]->ToString() + " - " +
             children_[1]->ToString() +
             "| <= " + std::to_string(epsilon_) + ")";
  }
  return "?";
}

}  // namespace relserve

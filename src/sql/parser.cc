#include "sql/parser.h"

#include <cstdlib>

#include "sql/lexer.h"

namespace relserve {
namespace sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (ConsumeKeyword("EXPLAIN")) {
      stmt.kind = Statement::Kind::kExplainSelect;
      stmt.analyze = ConsumeKeyword("ANALYZE");
      RELSERVE_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
      return stmt;
    }
    if (ConsumeKeyword("CREATE")) {
      stmt.kind = Statement::Kind::kCreateTable;
      RELSERVE_RETURN_NOT_OK(ExpectKeyword("TABLE"));
      RELSERVE_ASSIGN_OR_RETURN(stmt.create.table, ExpectIdentifier());
      RELSERVE_RETURN_NOT_OK(ExpectSymbol("("));
      while (true) {
        Column column;
        RELSERVE_ASSIGN_OR_RETURN(column.name, ExpectIdentifier());
        RELSERVE_ASSIGN_OR_RETURN(std::string type, ExpectIdentifier());
        for (char& c : type) c = static_cast<char>(std::toupper(c));
        if (type == "INT64") {
          column.type = ValueType::kInt64;
        } else if (type == "FLOAT64") {
          column.type = ValueType::kFloat64;
        } else if (type == "STRING") {
          column.type = ValueType::kString;
        } else if (type == "FLOAT_VECTOR") {
          column.type = ValueType::kFloatVector;
        } else {
          return Status::InvalidArgument("unknown column type '" +
                                         type + "'");
        }
        stmt.create.columns.push_back(std::move(column));
        if (!ConsumeSymbol(",")) break;
      }
      RELSERVE_RETURN_NOT_OK(ExpectSymbol(")"));
      RELSERVE_RETURN_NOT_OK(ExpectEnd());
      return stmt;
    }
    if (ConsumeKeyword("INSERT")) {
      stmt.kind = Statement::Kind::kInsert;
      RELSERVE_RETURN_NOT_OK(ExpectKeyword("INTO"));
      RELSERVE_ASSIGN_OR_RETURN(stmt.insert.table, ExpectIdentifier());
      RELSERVE_RETURN_NOT_OK(ExpectKeyword("VALUES"));
      while (true) {
        RELSERVE_RETURN_NOT_OK(ExpectSymbol("("));
        std::vector<Value> row;
        while (true) {
          RELSERVE_ASSIGN_OR_RETURN(Value v, ParseLiteral());
          row.push_back(std::move(v));
          if (!ConsumeSymbol(",")) break;
        }
        RELSERVE_RETURN_NOT_OK(ExpectSymbol(")"));
        stmt.insert.rows.push_back(std::move(row));
        if (!ConsumeSymbol(",")) break;
      }
      RELSERVE_RETURN_NOT_OK(ExpectEnd());
      return stmt;
    }
    if (ConsumeKeyword("UPDATE")) {
      stmt.kind = Statement::Kind::kUpdate;
      RELSERVE_ASSIGN_OR_RETURN(stmt.update.table, ExpectIdentifier());
      RELSERVE_RETURN_NOT_OK(ExpectKeyword("SET"));
      while (true) {
        SetClause set;
        RELSERVE_ASSIGN_OR_RETURN(set.column, ExpectIdentifier());
        RELSERVE_RETURN_NOT_OK(ExpectSymbol("="));
        RELSERVE_ASSIGN_OR_RETURN(set.value, ParseLiteral());
        stmt.update.sets.push_back(std::move(set));
        if (!ConsumeSymbol(",")) break;
      }
      if (ConsumeKeyword("WHERE")) {
        RELSERVE_ASSIGN_OR_RETURN(stmt.update.where, ParseOr());
      }
      RELSERVE_RETURN_NOT_OK(ExpectEnd());
      return stmt;
    }
    if (ConsumeKeyword("DELETE")) {
      stmt.kind = Statement::Kind::kDelete;
      RELSERVE_RETURN_NOT_OK(ExpectKeyword("FROM"));
      RELSERVE_ASSIGN_OR_RETURN(stmt.del.table, ExpectIdentifier());
      if (ConsumeKeyword("WHERE")) {
        RELSERVE_ASSIGN_OR_RETURN(stmt.del.where, ParseOr());
      }
      RELSERVE_RETURN_NOT_OK(ExpectEnd());
      return stmt;
    }
    if (ConsumeKeyword("SHOW")) {
      stmt.kind = Statement::Kind::kShowModels;
      RELSERVE_RETURN_NOT_OK(ExpectKeyword("MODELS"));
      RELSERVE_RETURN_NOT_OK(ExpectEnd());
      return stmt;
    }
    stmt.kind = Statement::Kind::kSelect;
    RELSERVE_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
    return stmt;
  }

  Result<SelectStatement> ParseSelect() {
    RELSERVE_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    SelectStatement stmt;
    while (true) {
      RELSERVE_ASSIGN_OR_RETURN(SelectItem item, ParseItem());
      stmt.items.push_back(std::move(item));
      if (!ConsumeSymbol(",")) break;
    }
    RELSERVE_RETURN_NOT_OK(ExpectKeyword("FROM"));
    RELSERVE_ASSIGN_OR_RETURN(stmt.table, ExpectIdentifier());
    if (ConsumeKeyword("WHERE")) {
      RELSERVE_ASSIGN_OR_RETURN(stmt.where, ParseOr());
    }
    if (ConsumeKeyword("GROUP")) {
      RELSERVE_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        RELSERVE_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
        stmt.group_by.push_back(std::move(name));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (ConsumeKeyword("ORDER")) {
      RELSERVE_RETURN_NOT_OK(ExpectKeyword("BY"));
      RELSERVE_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
      stmt.order_by = std::move(name);
      if (ConsumeKeyword("DESC")) {
        stmt.order_desc = true;
      } else {
        ConsumeKeyword("ASC");
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      if (Peek().kind != TokenKind::kNumber) {
        return Status::InvalidArgument("LIMIT expects a number");
      }
      stmt.limit = std::atoll(Advance().text.c_str());
      if (*stmt.limit < 0) {
        return Status::InvalidArgument("negative LIMIT");
      }
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("unexpected trailing token '" +
                                     Peek().text + "'");
    }
    return stmt;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Advance() { return tokens_[pos_++]; }

  bool ConsumeKeyword(const std::string& kw) {
    if (Peek().IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeSymbol(const std::string& s) {
    if (Peek().IsSymbol(s)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!ConsumeKeyword(kw)) {
      return Status::InvalidArgument("expected " + kw + ", got '" +
                                     Peek().text + "'");
    }
    return Status::OK();
  }
  Status ExpectSymbol(const std::string& s) {
    if (!ConsumeSymbol(s)) {
      return Status::InvalidArgument("expected '" + s + "', got '" +
                                     Peek().text + "'");
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument("expected identifier, got '" +
                                     Peek().text + "'");
    }
    return Advance().text;
  }
  Status ExpectEnd() {
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("unexpected trailing token '" +
                                     Peek().text + "'");
    }
    return Status::OK();
  }

  // number | 'string' | [f, f, ...] vector literal
  Result<Value> ParseLiteral() {
    const Token& tok = Peek();
    if (tok.kind == TokenKind::kNumber) {
      const std::string text = Advance().text;
      if (text.find('.') != std::string::npos) {
        return Value(std::atof(text.c_str()));
      }
      return Value(static_cast<int64_t>(std::atoll(text.c_str())));
    }
    if (tok.kind == TokenKind::kString) {
      return Value(Advance().text);
    }
    if (ConsumeSymbol("[")) {
      std::vector<float> vec;
      if (!ConsumeSymbol("]")) {
        while (true) {
          if (Peek().kind != TokenKind::kNumber) {
            return Status::InvalidArgument(
                "vector literal expects numbers");
          }
          vec.push_back(
              static_cast<float>(std::atof(Advance().text.c_str())));
          if (!ConsumeSymbol(",")) break;
        }
        RELSERVE_RETURN_NOT_OK(ExpectSymbol("]"));
      }
      return Value(std::move(vec));
    }
    return Status::InvalidArgument("expected literal, got '" +
                                   tok.text + "'");
  }

  Result<SelectItem> ParseItem() {
    SelectItem item;
    if (ConsumeSymbol("*")) {
      item.kind = ItemKind::kStar;
      return item;
    }
    RELSERVE_ASSIGN_OR_RETURN(std::string name, ExpectIdentifier());
    std::string upper = name;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    if ((upper == "COUNT" || upper == "SUM" || upper == "AVG" ||
         upper == "MIN" || upper == "MAX") &&
        Peek().IsSymbol("(")) {
      ++pos_;  // consume '('
      item.kind = ItemKind::kAggregate;
      if (upper == "COUNT") item.agg = AggregateFunc::kCount;
      if (upper == "SUM") item.agg = AggregateFunc::kSum;
      if (upper == "AVG") item.agg = AggregateFunc::kAvg;
      if (upper == "MIN") item.agg = AggregateFunc::kMin;
      if (upper == "MAX") item.agg = AggregateFunc::kMax;
      if (ConsumeSymbol("*")) {
        if (item.agg != AggregateFunc::kCount) {
          return Status::InvalidArgument(upper + "(*) is not valid");
        }
        item.column += '*';
      } else {
        RELSERVE_ASSIGN_OR_RETURN(item.column, ExpectIdentifier());
      }
      RELSERVE_RETURN_NOT_OK(ExpectSymbol(")"));
      if (ConsumeKeyword("AS")) {
        RELSERVE_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
      }
      return item;
    }
    if ((upper == "PREDICT" || upper == "PREDICT_CLASS") &&
        Peek().IsSymbol("(")) {
      ++pos_;  // consume '('
      item.kind = upper == "PREDICT" ? ItemKind::kPredict
                                     : ItemKind::kPredictClass;
      RELSERVE_ASSIGN_OR_RETURN(item.model, ExpectIdentifier());
      item.feature_col = "features";
      if (ConsumeSymbol(",")) {
        RELSERVE_ASSIGN_OR_RETURN(item.feature_col, ExpectIdentifier());
      }
      RELSERVE_RETURN_NOT_OK(ExpectSymbol(")"));
    } else {
      item.kind = ItemKind::kColumn;
      item.column = std::move(name);
    }
    if (ConsumeKeyword("AS")) {
      RELSERVE_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
    }
    return item;
  }

  Result<Operand> ParseOperand() {
    const Token& tok = Peek();
    Operand operand;
    switch (tok.kind) {
      case TokenKind::kIdentifier:
        operand.is_column = true;
        operand.column = Advance().text;
        return operand;
      case TokenKind::kNumber: {
        const std::string text = Advance().text;
        if (text.find('.') != std::string::npos) {
          operand.literal = Value(std::atof(text.c_str()));
        } else {
          operand.literal =
              Value(static_cast<int64_t>(std::atoll(text.c_str())));
        }
        return operand;
      }
      case TokenKind::kString:
        operand.literal = Value(Advance().text);
        return operand;
      default:
        return Status::InvalidArgument("expected operand, got '" +
                                       tok.text + "'");
    }
  }

  Result<PredicatePtr> ParseComparison() {
    if (ConsumeKeyword("NOT")) {
      RELSERVE_ASSIGN_OR_RETURN(PredicatePtr inner, ParseComparison());
      auto p = std::make_unique<Predicate>();
      p->kind = PredicateKind::kNot;
      p->left = std::move(inner);
      return p;
    }
    if (ConsumeSymbol("(")) {
      RELSERVE_ASSIGN_OR_RETURN(PredicatePtr inner, ParseOr());
      RELSERVE_RETURN_NOT_OK(ExpectSymbol(")"));
      return inner;
    }
    auto p = std::make_unique<Predicate>();
    p->kind = PredicateKind::kComparison;
    RELSERVE_ASSIGN_OR_RETURN(p->comparison.left, ParseOperand());
    const Token op = Advance();
    if (op.kind != TokenKind::kSymbol) {
      return Status::InvalidArgument("expected comparison operator");
    }
    if (op.text == "=") {
      p->comparison.op = CompareOp::kEq;
    } else if (op.text == "!=") {
      p->comparison.op = CompareOp::kNe;
    } else if (op.text == "<") {
      p->comparison.op = CompareOp::kLt;
    } else if (op.text == "<=") {
      p->comparison.op = CompareOp::kLe;
    } else if (op.text == ">") {
      p->comparison.op = CompareOp::kGt;
    } else if (op.text == ">=") {
      p->comparison.op = CompareOp::kGe;
    } else {
      return Status::InvalidArgument("unknown operator '" + op.text +
                                     "'");
    }
    RELSERVE_ASSIGN_OR_RETURN(p->comparison.right, ParseOperand());
    return p;
  }

  Result<PredicatePtr> ParseAnd() {
    RELSERVE_ASSIGN_OR_RETURN(PredicatePtr left, ParseComparison());
    while (ConsumeKeyword("AND")) {
      RELSERVE_ASSIGN_OR_RETURN(PredicatePtr right, ParseComparison());
      auto p = std::make_unique<Predicate>();
      p->kind = PredicateKind::kAnd;
      p->left = std::move(left);
      p->right = std::move(right);
      left = std::move(p);
    }
    return left;
  }

  Result<PredicatePtr> ParseOr() {
    RELSERVE_ASSIGN_OR_RETURN(PredicatePtr left, ParseAnd());
    while (ConsumeKeyword("OR")) {
      RELSERVE_ASSIGN_OR_RETURN(PredicatePtr right, ParseAnd());
      auto p = std::make_unique<Predicate>();
      p->kind = PredicateKind::kOr;
      p->left = std::move(left);
      p->right = std::move(right);
      left = std::move(p);
    }
    return left;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<SelectStatement> Parse(const std::string& query) {
  RELSERVE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(query));
  Parser parser(std::move(tokens));
  return parser.ParseSelect();
}

Result<Statement> ParseStatement(const std::string& query) {
  RELSERVE_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(query));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace sql
}  // namespace relserve

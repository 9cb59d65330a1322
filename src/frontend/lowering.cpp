#include "frontend/lowering.h"

#include <map>

#include "frontend/parser.h"
#include "ir/builder.h"
#include "ir/verifier.h"
#include "support/diagnostics.h"
#include "support/fatal.h"

namespace chf {

namespace {

/** Inlining depth limit; a deeper call chain is an input error. */
constexpr size_t kMaxInlineDepth = 24;

/** Where an inlined function's `return` should deposit and jump. */
struct ReturnTarget
{
    Vreg resultReg;
    BlockId contBlock;
};

class Lowerer
{
  public:
    explicit Lowerer(const TranslationUnit &unit)
        : unit(unit), builder(program.fn)
    {
    }

    Program
    lower()
    {
        layoutGlobals();

        const FuncDecl *entry = unit.findFunction("main");
        if (!entry) {
            throwInputError("lower", SourceLoc{},
                            "no function named 'main'");
        }

        BlockId entry_block = builder.makeBlock("entry");
        program.fn.setEntry(entry_block);
        builder.setBlock(entry_block);
        terminated = false;

        // Bind entry parameters to argument registers.
        pushScope();
        callStack.push_back(entry->name);
        for (const auto &param : entry->params) {
            Vreg v = program.fn.newVreg();
            program.fn.argRegs.push_back(v);
            declare(param, v, entry->line, entry->col);
        }
        lowerStmt(*entry->body);
        if (!terminated)
            builder.ret(IRBuilder::imm(0));
        callStack.pop_back();
        popScope();

        program.fn.removeUnreachable();
        verifyOrDie(program.fn, "frontend lowering");
        program.defaultArgs.assign(entry->params.size(), 0);
        return std::move(program);
    }

  private:
    // ----- Globals -----

    void
    layoutGlobals()
    {
        for (const auto &g : unit.globals) {
            int64_t size = g.arraySize < 0 ? 1 : g.arraySize;
            if (g.arraySize >= 0 &&
                static_cast<int64_t>(g.init.size()) > g.arraySize) {
                throwInputError("lower", SourceLoc::at(g.line, g.col),
                                concat("too many initializers for ",
                                       g.name));
            }
            int64_t base = program.memory.allocate(g.name, size);
            for (size_t i = 0; i < g.init.size(); ++i)
                program.memory.write(base + static_cast<int64_t>(i),
                                     g.init[i]);
            globalBase[g.name] = base;
            globalIsArray[g.name] = g.arraySize >= 0;
        }
    }

    bool
    isGlobal(const std::string &name) const
    {
        return globalBase.count(name) > 0;
    }

    // ----- Scopes -----

    void pushScope() { scopes.emplace_back(); }
    void popScope() { scopes.pop_back(); }

    void
    declare(const std::string &name, Vreg v, int line, int col)
    {
        auto &scope = scopes.back();
        if (scope.count(name)) {
            throwInputError("lower", SourceLoc::at(line, col),
                            concat("redeclaration of ", name));
        }
        scope[name] = v;
    }

    /** Innermost local binding; kNoVreg if none. */
    Vreg
    lookupLocal(const std::string &name) const
    {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
            auto found = it->find(name);
            if (found != it->end())
                return found->second;
        }
        return kNoVreg;
    }

    // ----- Expressions -----

    Operand
    lowerExpr(const Expr &expr)
    {
        switch (expr.kind) {
          case Expr::Kind::IntLit:
            return IRBuilder::imm(expr.intValue);
          case Expr::Kind::Var: {
            Vreg local = lookupLocal(expr.name);
            if (local != kNoVreg)
                return IRBuilder::r(local);
            if (isGlobal(expr.name)) {
                if (globalIsArray.at(expr.name)) {
                    // Bare array name evaluates to its base address.
                    return IRBuilder::imm(globalBase.at(expr.name));
                }
                Vreg v = builder.load(
                    IRBuilder::imm(globalBase.at(expr.name)),
                    IRBuilder::imm(0));
                return IRBuilder::r(v);
            }
            throwInputError("lower", SourceLoc::at(expr.line, expr.col),
                            concat("unknown variable ", expr.name));
          }
          case Expr::Kind::Index: {
            if (!isGlobal(expr.name) || !globalIsArray.at(expr.name)) {
                throwInputError("lower",
                                SourceLoc::at(expr.line, expr.col),
                                concat(expr.name, " is not an array"));
            }
            Operand index = lowerExpr(*expr.lhs);
            Vreg v = builder.load(
                IRBuilder::imm(globalBase.at(expr.name)), index);
            return IRBuilder::r(v);
          }
          case Expr::Kind::Unary:
            return lowerUnary(expr);
          case Expr::Kind::Binary:
            return lowerBinary(expr);
          case Expr::Kind::Ternary:
            return lowerTernary(expr);
          case Expr::Kind::Call:
            return lowerCall(expr);
        }
        panic("unhandled expression kind");
    }

    Operand
    lowerUnary(const Expr &expr)
    {
        Operand v = lowerExpr(*expr.lhs);
        if (v.isImm()) {
            if (expr.op == "-")
                return IRBuilder::imm(-v.imm);
            if (expr.op == "!")
                return IRBuilder::imm(v.imm == 0);
            if (expr.op == "~")
                return IRBuilder::imm(~v.imm);
        }
        if (expr.op == "-")
            return IRBuilder::r(builder.unary(Opcode::Neg, v));
        if (expr.op == "!") {
            return IRBuilder::r(
                builder.binary(Opcode::Teq, v, IRBuilder::imm(0)));
        }
        if (expr.op == "~")
            return IRBuilder::r(builder.unary(Opcode::Not, v));
        panic(concat("unhandled unary operator ", expr.op));
    }

    Operand
    lowerBinary(const Expr &expr)
    {
        if (expr.op == "&&" || expr.op == "||")
            return lowerShortCircuit(expr);

        Operand a = lowerExpr(*expr.lhs);
        Operand b = lowerExpr(*expr.rhs);

        static const std::map<std::string, Opcode> ops = {
            {"+", Opcode::Add},  {"-", Opcode::Sub},
            {"*", Opcode::Mul},  {"/", Opcode::Div},
            {"%", Opcode::Mod},  {"&", Opcode::And},
            {"|", Opcode::Or},   {"^", Opcode::Xor},
            {"<<", Opcode::Shl}, {">>", Opcode::Shr},
            {"==", Opcode::Teq}, {"!=", Opcode::Tne},
            {"<", Opcode::Tlt},  {"<=", Opcode::Tle},
            {">", Opcode::Tgt},  {">=", Opcode::Tge},
        };
        auto it = ops.find(expr.op);
        if (it == ops.end())
            panic(concat("unhandled binary operator ", expr.op));
        return IRBuilder::r(builder.binary(it->second, a, b));
    }

    /**
     * Lower && / || with C short-circuit semantics via control flow.
     * This is a major source of the small conditional blocks that
     * hyperblock formation later folds into predicated code.
     */
    Operand
    lowerShortCircuit(const Expr &expr)
    {
        bool is_and = expr.op == "&&";
        Vreg result = program.fn.newVreg();
        builder.movTo(result, IRBuilder::imm(is_and ? 0 : 1));

        Operand a = lowerExpr(*expr.lhs);
        Vreg cond = materialize(a);

        BlockId rhs_block = builder.makeBlock("sc_rhs");
        BlockId end_block = builder.makeBlock("sc_end");
        if (is_and)
            builder.brCond(cond, rhs_block, end_block);
        else
            builder.brCond(cond, end_block, rhs_block);

        builder.setBlock(rhs_block);
        Operand b = lowerExpr(*expr.rhs);
        Vreg normalized =
            builder.binary(Opcode::Tne, b, IRBuilder::imm(0));
        builder.movTo(result, IRBuilder::r(normalized));
        builder.br(end_block);

        builder.setBlock(end_block);
        return IRBuilder::r(result);
    }

    /** cond ? a : b with proper short-circuit evaluation. */
    Operand
    lowerTernary(const Expr &expr)
    {
        Vreg result = program.fn.newVreg();
        Operand cond = lowerExpr(*expr.args[0]);
        Vreg c = materialize(cond);

        BlockId then_block = builder.makeBlock("sel_then");
        BlockId else_block = builder.makeBlock("sel_else");
        BlockId end_block = builder.makeBlock("sel_end");
        builder.brCond(c, then_block, else_block);

        builder.setBlock(then_block);
        builder.movTo(result, lowerExpr(*expr.args[1]));
        builder.br(end_block);

        builder.setBlock(else_block);
        builder.movTo(result, lowerExpr(*expr.args[2]));
        builder.br(end_block);

        builder.setBlock(end_block);
        return IRBuilder::r(result);
    }

    /** Force an operand into a register (needed for predicates). */
    Vreg
    materialize(Operand op)
    {
        if (op.isReg())
            return op.reg;
        return builder.constant(op.imm);
    }

    Operand
    lowerCall(const Expr &expr)
    {
        SourceLoc loc = SourceLoc::at(expr.line, expr.col);
        const FuncDecl *callee = unit.findFunction(expr.name);
        if (!callee) {
            throwInputError("lower", loc,
                            concat("call to unknown function ",
                                   expr.name));
        }
        for (const std::string &active : callStack) {
            if (active == expr.name) {
                throwInputError(
                    "lower", loc,
                    concat("recursive call to ", expr.name,
                           " (TinyC inlines all calls; recursion is "
                           "unsupported)"));
            }
        }
        if (callStack.size() >= kMaxInlineDepth)
            throwInputError("lower", loc, "inline depth exceeded");
        if (expr.args.size() != callee->params.size()) {
            throwInputError("lower", loc,
                            concat(expr.name, " expects ",
                                   callee->params.size(),
                                   " arguments, got ",
                                   expr.args.size()));
        }

        // Evaluate arguments in the caller's scope.
        std::vector<Operand> arg_values;
        for (const auto &arg : expr.args)
            arg_values.push_back(lowerExpr(*arg));

        // Fresh scope with parameters bound to copies.
        pushScope();
        callStack.push_back(callee->name);
        for (size_t i = 0; i < callee->params.size(); ++i) {
            Vreg v = program.fn.newVreg();
            builder.movTo(v, arg_values[i]);
            declare(callee->params[i], v, expr.line, expr.col);
        }

        Vreg result = program.fn.newVreg();
        BlockId cont = builder.makeBlock(expr.name + "_ret");
        returnTargets.push_back(ReturnTarget{result, cont});

        lowerStmt(*callee->body);
        if (!terminated) {
            builder.movTo(result, IRBuilder::imm(0));
            builder.br(cont);
        }
        terminated = false;
        builder.setBlock(cont);

        returnTargets.pop_back();
        callStack.pop_back();
        popScope();
        return IRBuilder::r(result);
    }

    // ----- Statements -----

    void
    lowerStmt(const Stmt &stmt)
    {
        if (terminated)
            return; // unreachable code after return/break/continue
        switch (stmt.kind) {
          case Stmt::Kind::Block: {
            pushScope();
            for (const auto &s : stmt.stmts) {
                if (terminated)
                    break;
                lowerStmt(*s);
            }
            popScope();
            break;
          }
          case Stmt::Kind::LocalDecl: {
            Vreg v = program.fn.newVreg();
            Operand init = stmt.value ? lowerExpr(*stmt.value)
                                      : IRBuilder::imm(0);
            builder.movTo(v, init);
            declare(stmt.name, v, stmt.line, stmt.col);
            break;
          }
          case Stmt::Kind::Assign:
            lowerAssign(stmt);
            break;
          case Stmt::Kind::If:
            lowerIf(stmt);
            break;
          case Stmt::Kind::While:
            lowerWhile(stmt);
            break;
          case Stmt::Kind::DoWhile:
            lowerDoWhile(stmt);
            break;
          case Stmt::Kind::For:
            lowerFor(stmt);
            break;
          case Stmt::Kind::Return: {
            Operand value = stmt.value ? lowerExpr(*stmt.value)
                                       : IRBuilder::imm(0);
            if (returnTargets.empty()) {
                builder.ret(value);
            } else {
                builder.movTo(returnTargets.back().resultReg, value);
                builder.br(returnTargets.back().contBlock);
            }
            terminated = true;
            break;
          }
          case Stmt::Kind::Break:
            if (breakTargets.empty()) {
                throwInputError("lower",
                                SourceLoc::at(stmt.line, stmt.col),
                                "break outside loop");
            }
            builder.br(breakTargets.back());
            terminated = true;
            break;
          case Stmt::Kind::Continue:
            if (continueTargets.empty()) {
                throwInputError("lower",
                                SourceLoc::at(stmt.line, stmt.col),
                                "continue outside loop");
            }
            builder.br(continueTargets.back());
            terminated = true;
            break;
          case Stmt::Kind::ExprStmt:
            lowerExpr(*stmt.value);
            break;
        }
    }

    Opcode
    compoundOpcode(const std::string &op, int line, int col)
    {
        if (op == "+=") return Opcode::Add;
        if (op == "-=") return Opcode::Sub;
        if (op == "*=") return Opcode::Mul;
        if (op == "/=") return Opcode::Div;
        if (op == "%=") return Opcode::Mod;
        throwInputError("lower", SourceLoc::at(line, col),
                        concat("bad assignment operator ", op));
    }

    void
    lowerAssign(const Stmt &stmt)
    {
        if (stmt.index) {
            // Array element assignment.
            if (!isGlobal(stmt.name) || !globalIsArray.at(stmt.name)) {
                throwInputError("lower",
                                SourceLoc::at(stmt.line, stmt.col),
                                concat(stmt.name, " is not an array"));
            }
            Operand base = IRBuilder::imm(globalBase.at(stmt.name));
            Operand index = lowerExpr(*stmt.index);
            // Pin the index in a register so load and store agree even
            // if it came from a complex expression.
            Operand idx = IRBuilder::r(materialize(index));
            if (stmt.op == "=") {
                Operand value = lowerExpr(*stmt.value);
                builder.store(base, idx, value);
            } else {
                Vreg old = builder.load(base, idx);
                Operand value = lowerExpr(*stmt.value);
                Vreg updated = builder.binary(
                    compoundOpcode(stmt.op, stmt.line, stmt.col),
                    IRBuilder::r(old), value);
                builder.store(base, idx, IRBuilder::r(updated));
            }
            return;
        }

        Vreg local = lookupLocal(stmt.name);
        if (local != kNoVreg) {
            if (stmt.op == "=") {
                builder.movTo(local, lowerExpr(*stmt.value));
            } else {
                Operand value = lowerExpr(*stmt.value);
                Vreg updated = builder.binary(
                    compoundOpcode(stmt.op, stmt.line, stmt.col),
                    IRBuilder::r(local), value);
                builder.movTo(local, IRBuilder::r(updated));
            }
            return;
        }
        if (isGlobal(stmt.name) && !globalIsArray.at(stmt.name)) {
            Operand base = IRBuilder::imm(globalBase.at(stmt.name));
            Operand zero = IRBuilder::imm(0);
            if (stmt.op == "=") {
                builder.store(base, zero, lowerExpr(*stmt.value));
            } else {
                Vreg old = builder.load(base, zero);
                Operand value = lowerExpr(*stmt.value);
                Vreg updated = builder.binary(
                    compoundOpcode(stmt.op, stmt.line, stmt.col),
                    IRBuilder::r(old), value);
                builder.store(base, zero, IRBuilder::r(updated));
            }
            return;
        }
        throwInputError("lower", SourceLoc::at(stmt.line, stmt.col),
                        concat("assignment to unknown name ",
                               stmt.name));
    }

    void
    lowerIf(const Stmt &stmt)
    {
        Operand cond = lowerExpr(*stmt.cond);
        Vreg c = materialize(cond);
        BlockId then_block = builder.makeBlock("then");
        BlockId end_block = builder.makeBlock("ifend");
        BlockId else_block =
            stmt.elseStmt ? builder.makeBlock("else") : end_block;

        builder.brCond(c, then_block, else_block);

        builder.setBlock(then_block);
        terminated = false;
        lowerStmt(*stmt.thenStmt);
        if (!terminated)
            builder.br(end_block);

        if (stmt.elseStmt) {
            builder.setBlock(else_block);
            terminated = false;
            lowerStmt(*stmt.elseStmt);
            if (!terminated)
                builder.br(end_block);
        }

        builder.setBlock(end_block);
        terminated = false;
    }

    void
    lowerWhile(const Stmt &stmt)
    {
        BlockId header = builder.makeBlock("while_head");
        BlockId body = builder.makeBlock("while_body");
        BlockId exit = builder.makeBlock("while_exit");

        builder.br(header);
        builder.setBlock(header);
        terminated = false;
        Operand cond = lowerExpr(*stmt.cond);
        builder.brCond(materialize(cond), body, exit);

        breakTargets.push_back(exit);
        continueTargets.push_back(header);
        builder.setBlock(body);
        terminated = false;
        lowerStmt(*stmt.body);
        if (!terminated)
            builder.br(header);
        breakTargets.pop_back();
        continueTargets.pop_back();

        builder.setBlock(exit);
        terminated = false;
    }

    void
    lowerDoWhile(const Stmt &stmt)
    {
        BlockId body = builder.makeBlock("do_body");
        BlockId cond_block = builder.makeBlock("do_cond");
        BlockId exit = builder.makeBlock("do_exit");

        builder.br(body);
        breakTargets.push_back(exit);
        continueTargets.push_back(cond_block);
        builder.setBlock(body);
        terminated = false;
        lowerStmt(*stmt.body);
        if (!terminated)
            builder.br(cond_block);
        breakTargets.pop_back();
        continueTargets.pop_back();

        builder.setBlock(cond_block);
        terminated = false;
        Operand cond = lowerExpr(*stmt.cond);
        builder.brCond(materialize(cond), body, exit);

        builder.setBlock(exit);
        terminated = false;
    }

    void
    lowerFor(const Stmt &stmt)
    {
        pushScope();
        if (stmt.init)
            lowerStmt(*stmt.init);

        BlockId header = builder.makeBlock("for_head");
        BlockId body = builder.makeBlock("for_body");
        BlockId latch = builder.makeBlock("for_step");
        BlockId exit = builder.makeBlock("for_exit");

        builder.br(header);
        builder.setBlock(header);
        terminated = false;
        if (stmt.cond) {
            Operand cond = lowerExpr(*stmt.cond);
            builder.brCond(materialize(cond), body, exit);
        } else {
            builder.br(body);
        }

        breakTargets.push_back(exit);
        continueTargets.push_back(latch);
        builder.setBlock(body);
        terminated = false;
        lowerStmt(*stmt.body);
        if (!terminated)
            builder.br(latch);
        breakTargets.pop_back();
        continueTargets.pop_back();

        builder.setBlock(latch);
        terminated = false;
        if (stmt.step)
            lowerStmt(*stmt.step);
        builder.br(header);

        builder.setBlock(exit);
        terminated = false;
        popScope();
    }

    const TranslationUnit &unit;
    Program program;
    IRBuilder builder;

    std::vector<std::map<std::string, Vreg>> scopes;
    std::map<std::string, int64_t> globalBase;
    std::map<std::string, bool> globalIsArray;
    std::vector<std::string> callStack;
    std::vector<ReturnTarget> returnTargets;
    std::vector<BlockId> breakTargets;
    std::vector<BlockId> continueTargets;
    bool terminated = false;
};

} // namespace

Program
lowerToIR(const TranslationUnit &unit)
{
    Lowerer lowerer(unit);
    return lowerer.lower();
}

} // namespace chf
